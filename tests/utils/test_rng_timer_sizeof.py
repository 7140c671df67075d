"""Unit tests for RNG scoping and message sizing."""

from repro.utils.rng import make_rng, stable_hash
from repro.utils.sizeof import message_size, value_size


# ---------------------------------------------------------------- rng
def test_same_seed_same_stream():
    assert make_rng(1, "a").random() == make_rng(1, "a").random()


def test_different_scope_different_stream():
    assert make_rng(1, "a").random() != make_rng(1, "b").random()


def test_none_seed_gives_rng():
    rng = make_rng(None, "whatever")
    assert 0.0 <= rng.random() < 1.0


def test_stable_hash_is_deterministic_for_strings():
    assert stable_hash("vertex-17") == stable_hash("vertex-17")


def test_stable_hash_int_passthrough_nonnegative():
    assert stable_hash(12345) == 12345
    assert stable_hash(-7) >= 0


def test_stable_hash_spreads_values():
    buckets = {stable_hash(f"v{i}") % 8 for i in range(100)}
    assert len(buckets) == 8  # all buckets hit over 100 keys


# ------------------------------------------------------------- sizeof
def test_numbers_are_eight_bytes():
    assert value_size(42) == 8
    assert value_size(3.14) == 8


def test_bool_is_one_byte():
    assert value_size(True) == 1


def test_none_is_one_byte():
    assert value_size(None) == 1


def test_string_utf8_length():
    assert value_size("abc") == 3
    assert value_size("é") == 2


def test_dict_sums_keys_and_values():
    assert value_size({1: 2.0}) == 16


def test_list_and_set_sum_members():
    assert value_size([1, 2, 3]) == 24
    assert value_size({1, 2}) == 16


def test_slot_keys_cost_their_two_components():
    from repro.graph.fragment import Slot

    # A column key is its vertex tuple plus the writer, as a plain
    # tuple would be priced.
    for vertices in ((7,), (7, 8), ("ab", (1, 2))):
        plain = {(vertices, 3): (0.5,) * len(vertices), (vertices, 4): None}
        slots = {Slot(k): v for k, v in plain.items()}
        assert value_size(slots) == value_size(plain)
    assert value_size({Slot(((7, 8), 3)): (0.5, 0.25)}) == 16 + 8 + 16


def test_a_column_pair_costs_what_the_dict_did():
    """A message is a ``(keys, values)`` column pair: it is priced as
    the ``{key: value}`` dict it replaced, for the three entry shapes
    the programs ship."""
    from repro.graph.fragment import Slot

    cases = [
        ({1: 2.0, 7: 0.5}, [1, 7], [2.0, 0.5]),
        ({1: 3, 7: 4}, [1, 7], [3, 4]),
        (
            {Slot(((7, 8), 3)): (0.5, 0.25), Slot((("ab",), 4)): None},
            [Slot(((7, 8), 3)), Slot((("ab",), 4))],
            [(0.5, 0.25), None],
        ),
    ]
    for entries, keys, values in cases:
        assert message_size((keys, values)) == message_size(entries)


def test_nested_structure():
    payload = {"ab": [1, 2], "c": {"d": 5}}
    assert value_size(payload) == 2 + 16 + 1 + (1 + 8)


def test_message_size_adds_header():
    assert message_size(1) == 16 + 8


def test_object_with_dict_counts_public_attrs():
    class Thing:
        def __init__(self):
            self.a = 1
            self._hidden = "xxxx"

    assert value_size(Thing()) == 8
