"""PIE program for collaborative filtering (CF) by matrix factorization.

Training data is a bipartite rating graph (users -> items, edge weight =
rating). Users are partitioned; items touched by several fragments
appear there as mirrors. Each fragment trains the latent-factor model on
its local ratings (SGD epochs); the *item* factor vectors are the update
parameters — after each epoch a fragment publishes its items' vectors,
and the aggregate function blends conflicting replicas by convex
averaging (classic parameter-averaging distributed SGD).

CF is the demo's example of a *non-monotonic* PIE program: the Assurance
Theorem's order condition does not apply, and termination comes from the
epoch budget instead — after ``epochs`` local passes a fragment stops
publishing, parameters stop changing, and the engine reaches its fixed
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.algorithms.sequential.cf_seq import (
    FactorModel,
    Rating,
    rmse,
    sgd_epoch,
)
from repro.core.aggregators import Aggregator
from repro.core.partial_order import UNORDERED
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment
from repro.utils.rng import stable_hash

VertexId = Hashable


def _blend(cur: object, new: object) -> object:
    return tuple((a + b) / 2.0 for a, b in zip(cur, new))  # type: ignore[arg-type]


#: Convex blend of item-factor replicas (parameter averaging).
FACTOR_BLEND = Aggregator("factor-blend", _blend, UNORDERED)


@dataclass(frozen=True)
class CFQuery:
    """Train a rank-``rank`` MF model for ``epochs`` distributed epochs."""

    rank: int = 8
    epochs: int = 5
    lr: float = 0.02
    reg: float = 0.05
    seed: int = 7
    rating_label: str | None = "rate"


@dataclass
class CFPartial:
    """Worker-local training state."""

    model: FactorModel
    ratings: list[Rating]
    epochs_done: int = 0
    mse_history: list[float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mse_history is None:
            self.mse_history = []


@dataclass
class CFResult:
    """Assembled model + training diagnostics."""

    model: FactorModel
    train_rmse: float
    mse_curves: list[list[float]]


class CFProgram(PIEProgram[CFQuery, CFPartial, CFResult]):
    """Local SGD + parameter averaging of item factors, as PIE."""

    name = "cf"

    def param_spec(self, query: CFQuery) -> ParamSpec:
        return ParamSpec(aggregator=FACTOR_BLEND, default=None)

    def declare_params(
        self, fragment: Fragment, query: CFQuery, params: UpdateParams
    ) -> None:
        # Parameters live on shared *items* only (border vertices that
        # carry ratings); user vertices never cross fragments' models.
        items = {
            v
            for v in fragment.border
            if fragment.graph.vertex_label(v) == "item"
        }
        params.lay(fragment.slot_view())
        params.declare(items)

    # ------------------------------------------------------------------
    def _local_ratings(
        self, fragment: Fragment, query: CFQuery
    ) -> list[Rating]:
        ratings: list[Rating] = []
        for u in fragment.owned:
            if fragment.graph.vertex_label(u) != "user":
                continue
            for edge in fragment.graph.out_edges(u):
                if (
                    query.rating_label is None
                    or edge.label == query.rating_label
                ):
                    ratings.append((u, edge.dst, edge.weight))
        return ratings

    def _publish(
        self,
        fragment: Fragment,
        partial: CFPartial,
        params: UpdateParams,
    ) -> None:
        # Publish in a stable order: params.set replaces the replica
        # wholesale (FACTOR_BLEND is order-sensitive), and a set's
        # iteration order varies with the process's hash seed.
        for item in sorted(params.declared, key=stable_hash):
            vec = partial.model.item_factors.get(item)
            if vec is not None:
                params.set(item, tuple(vec))

    def _absorb(
        self, partial: CFPartial, params: UpdateParams, changed: set[VertexId]
    ) -> None:
        for item in changed:
            value = params.get(item)
            if value is not None and item in partial.model.item_factors:
                partial.model.item_factors[item] = list(value)

    def _train_one_epoch(self, partial: CFPartial, query: CFQuery) -> None:
        mse = sgd_epoch(
            partial.model,
            partial.ratings,
            lr=query.lr,
            reg=query.reg,
            seed=query.seed + partial.epochs_done,
        )
        partial.mse_history.append(mse)
        partial.epochs_done += 1

    # ------------------------------------------------------------------
    def peval(
        self, fragment: Fragment, query: CFQuery, params: UpdateParams
    ) -> CFPartial:
        ratings = self._local_ratings(fragment, query)
        model = FactorModel(rank=query.rank)
        if ratings:
            model.mean = sum(r for _, _, r in ratings) / len(ratings)
        model.ensure(
            (u for u, _, _ in ratings),
            (i for _, i, _ in ratings),
            seed=query.seed,
        )
        partial = CFPartial(model=model, ratings=ratings)
        if ratings:
            self._train_one_epoch(partial, query)
            if partial.epochs_done < query.epochs:
                self._publish(fragment, partial, params)
        return partial

    def inceval(
        self,
        fragment: Fragment,
        query: CFQuery,
        partial: CFPartial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> CFPartial:
        if not partial.ratings or partial.epochs_done >= query.epochs:
            return partial
        self._absorb(partial, params, changed)
        self._train_one_epoch(partial, query)
        if partial.epochs_done < query.epochs:
            self._publish(fragment, partial, params)
        return partial

    def assemble(
        self, query: CFQuery, partials: Sequence[CFPartial]
    ) -> CFResult:
        merged = FactorModel(rank=query.rank)
        counts: dict[VertexId, int] = {}
        total_ratings: list[Rating] = []
        means: list[float] = []
        for partial in partials:
            if partial.ratings:
                means.append(partial.model.mean)
            total_ratings.extend(partial.ratings)
            merged.user_factors.update(partial.model.user_factors)
            merged.user_bias.update(partial.model.user_bias)
            for item, vec in partial.model.item_factors.items():
                if item in merged.item_factors:
                    n = counts[item]
                    old = merged.item_factors[item]
                    merged.item_factors[item] = [
                        (o * n + v) / (n + 1) for o, v in zip(old, vec)
                    ]
                    merged.item_bias[item] = (
                        merged.item_bias[item] * n + partial.model.item_bias[item]
                    ) / (n + 1)
                    counts[item] = n + 1
                else:
                    merged.item_factors[item] = list(vec)
                    merged.item_bias[item] = partial.model.item_bias[item]
                    counts[item] = 1
        merged.mean = sum(means) / len(means) if means else 0.0
        return CFResult(
            model=merged,
            train_rmse=rmse(merged, total_ratings),
            mse_curves=[p.mse_history for p in partials],
        )
