"""Fixture: GRP503 — an open OS handle stored on the program object."""

import os

from repro.core.aggregators import MIN
from repro.core.pie import ParamSpec, PIEProgram


class OpenHandleProgram(PIEProgram):
    name = "fixture-grp503"

    def __init__(self):
        self.log = open(os.devnull, "w")

    def param_spec(self, query):
        return ParamSpec(aggregator=MIN, default=None)

    def peval(self, fragment, query, params):
        dist = {}
        for v in fragment.border:
            params.improve(v, dist.get(v, 0))
        return dist

    def inceval(self, fragment, query, partial, params, changed):
        for v in changed:
            params.improve(v, partial.get(v, 0))
        return partial

    def assemble(self, query, partials):
        out = {}
        for partial in partials:
            out.update(partial)
        return out
