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

    for vertex in (7, "ab", (1, 2)):
        plain = {(vertex, 3): 0.5, (vertex, 4): None}
        slots = {Slot(k): v for k, v in plain.items()}
        assert value_size(slots) == value_size(plain)
    assert value_size({Slot((7, 3)): 0.5}) == 16 + 8


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


def test_typed_buffers_charged_exactly():
    from array import array

    # Numeric arrays cost 8 bytes per element — identical to shipping
    # the same values as a Python list.
    assert value_size(array("q", [1, 2, 3])) == value_size([1, 2, 3]) == 24
    assert value_size(array("d", [0.5, 1.5])) == 16
    assert value_size(array("H", range(10))) == 80
    # Byte-typed arrays are raw buffers, charged like bytes.
    assert value_size(array("B", b"abcd")) == value_size(b"abcd") == 4


def test_memoryview_charged_like_backing_buffer():
    from array import array

    weights = array("d", [1.0, 2.0, 3.0])
    assert value_size(memoryview(weights)) == value_size(weights) == 24
    adj = array("q", range(5))
    assert value_size(memoryview(adj)[1:4]) == 24
    assert value_size(memoryview(b"abc")) == 3
