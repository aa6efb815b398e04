"""Span tracer used by the traced benchmark run.

The package has no trace of its own yet, so the benchmark measures its layers
from outside: while a Tracer is installed, the public functions of each module
(and the methods of the oracle objects the benchmark hands in) are replaced by
wrappers that record one span per call. A span holds its name, start, end,
parent span, a size (rows for batched oracle calls, samples for volume_mc) and,
where the call raised, the exception class. Spans stay in memory in flat
arrays; ``save`` writes them out once the run is over. ``uninstall`` puts every
original back, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from convexdual import conedual, cutting, fenchel, mahler, normdual

MEMBER = "oracles.member"
VALUE = "oracles.value"


def _rows(X) -> int:
    return len(X) if getattr(X, "ndim", 1) == 2 else 1


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.notes: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self.dual_balls: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, size=None, note=None):
        """Return fn wrapped so that every call records one span.

        size(args) gives the span's size, note(args, result) a value kept
        with the span; both see the positional arguments exactly as the
        wrapper receives them (including self for class-level patches).
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, sizes = (
            self.name_id, self.parent, self.start, self.end, self.size)
        stack, notes, errors = self._stack, self.notes, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            sizes.append(size(args) if size is not None else 1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                end[i] = clock()
                stack.pop()
                errors[i] = type(exc).__name__
                raise
            end[i] = clock()
            stack.pop()
            if note is not None:
                notes[i] = note(args, out)
            return out

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        """Set owner.attr (module, class or instance), remembering the old one."""
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner)[attr] if own else None))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, size=None, note=None) -> None:
        """Replace owner.attr by a traced wrapper."""
        self._replace(owner, attr, self.wrap(getattr(owner, attr), name, size, note))

    def member_oracle(self, oracle, name: str = MEMBER):
        """Trace a weak membership oracle object's query and query_batch."""
        self.patch(oracle, "query", name)
        self.patch(oracle, "query_batch", name, size=lambda a: _rows(a[0]))
        return oracle

    def value_oracle(self, oracle):
        self.patch(oracle, "eval", VALUE)
        return oracle

    def _factory(self, owner, attr: str, after) -> None:
        """Patch a constructor-like function so its result passes through after."""
        orig = getattr(owner, attr)

        def made(*args, **kwargs):
            out = orig(*args, **kwargs)
            after(out)
            return out

        self._replace(owner, attr, made)

    # -- the patch table -------------------------------------------------------

    def install(self, objects=()) -> None:
        """Patch every traced layer; objects are (oracle, span name) pairs
        built before tracing started, such as primal oracles made at set-up."""
        for obj, name in objects:
            self.member_oracle(obj, name)

        def wopt_note(args, res):
            return (res.stop_reason, res.iterations)

        for mod in (cutting, normdual):
            self.patch(mod, "gauge_batch", "cutting.gauge_batch",
                       size=lambda a: _rows(np.asarray(a[2])))
        self.patch(cutting, "approx_separator", "cutting.approx_separator")
        for mod in (cutting, fenchel):
            self.patch(mod, "wopt_from_wmem", "cutting.wopt_from_wmem", note=wopt_note)
        for mod in (cutting, normdual, conedual):
            self.patch(mod, "wval_from_wmem", "cutting.wval_from_wmem")

        self.patch(normdual, "dual_norm_eval", "normdual.dual_norm_eval")
        self.patch(normdual, "approx_from_wmem", "normdual.approx_from_wmem",
                   note=lambda a, out: len(out[1].queries))
        self._factory(normdual, "rescale_norm",
                      lambda out: self.member_oracle(out[0], "normdual.rescale"))
        ball = normdual.DualBallOracle
        self.patch(ball, "query", "normdual.dual_ball.query")

        def seen(args, out):
            self.dual_balls[id(args[0])] = args[0]

        self.patch(ball, "query_batch", "normdual.dual_ball.query_batch",
                   size=lambda a: _rows(np.atleast_2d(a[1])), note=seen)
        # rows the sandwich screen did not settle
        self.patch(ball, "_lockstep", "normdual.dual_ball.lockstep",
                   size=lambda a: _rows(a[1]))

        self.patch(conedual.DualConeOracle, "query", "conedual.dual_cone.query")

        self.patch(fenchel, "fenchel_eval", "fenchel.fenchel_eval")
        self.patch(fenchel, "min_via_wopt", "fenchel.min_via_wopt")
        self._factory(fenchel.EpigraphBody, "oracle",
                      lambda out: self.member_oracle(out, "fenchel.epigraph"))

        self.patch(mahler, "mahler_volume", "mahler.mahler_volume")
        self.patch(mahler, "volume_mc", "mahler.volume_mc", size=lambda a: int(a[2]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, old = self._undo.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- reduction ---------------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.end)
        err_names = sorted(set(self.errors.values()))
        err = np.zeros(n, dtype=np.int16)
        for i, e in self.errors.items():
            err[i] = 1 + err_names.index(e)
        return {
            "names": np.array(self.names), "name_id": np.frombuffer(self.name_id, np.int32),
            "parent": np.frombuffer(self.parent, np.int32),
            "start": np.frombuffer(self.start, np.float64),
            "end": np.frombuffer(self.end, np.float64),
            "size": np.frombuffer(self.size, np.int64),
            "error": err, "error_names": np.array(err_names or [""]),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded so far."""
        a = self.arrays()
        nid, parent, size = a["name_id"], a["parent"], a["size"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        ids = {name: i for i, name in enumerate(self.names)}

        def sel(name):
            return nid == ids[name] if name in ids else np.zeros(nid.size, bool)

        # primal points (membership rows or function values) under each span;
        # children are recorded after their parents
        member = sel(MEMBER)
        acc = (np.where(member, size, 0) + sel(VALUE)).tolist()
        for i, p in zip(range(len(acc) - 1, -1, -1), parent[::-1].tolist()):
            if p >= 0:
                acc[p] += acc[i]
        under = np.array(acc, dtype=np.int64)

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def self_s(name):
            return float(self_t[sel(name)].sum())

        def errors(name, exc):
            return sum(1 for i, e in self.errors.items()
                       if e == exc and self.names[nid[i]] == name)

        def noted(name):
            m = sel(name)
            return [self.notes[i] for i in np.flatnonzero(m) if i in self.notes]

        points = int(size[member].sum())
        primal = points + calls(VALUE)
        gauge = sel("cutting.gauge_batch")
        rounds = int(np.count_nonzero(np.isin(parent, np.flatnonzero(gauge))))
        wopt = noted("cutting.wopt_from_wmem")
        stops = [s for s, _ in wopt]
        ball_batch = sel("normdual.dual_ball.query_batch")
        ball_rows = int(size[ball_batch].sum())
        lockstep_rows = int(size[sel("normdual.dual_ball.lockstep")].sum())
        cone = sel("conedual.dual_cone.query")
        vol = sel("mahler.volume_mc")

        return {
            "oracles.member.points": points,
            "oracles.member.batches": calls(MEMBER),
            "oracles.member.self_s": self_s(MEMBER),
            "oracles.value.evals": calls(VALUE),
            "oracles.value.self_s": self_s(VALUE),
            "cutting.gauge_batch.calls": calls("cutting.gauge_batch"),
            "cutting.gauge_batch.rows": int(size[gauge].sum()),
            "cutting.gauge_batch.rounds": rounds,
            "cutting.gauge_batch.self_s": self_s("cutting.gauge_batch"),
            "cutting.approx_separator.calls": calls("cutting.approx_separator"),
            "cutting.approx_separator.self_s": self_s("cutting.approx_separator"),
            "cutting.approx_separator.flat_errors":
                errors("cutting.approx_separator", "FlatGaugeError"),
            "cutting.separator_call_share":
                float(under[gauge].sum()) / primal if primal else 0.0,
            "cutting.wopt_from_wmem.calls": calls("cutting.wopt_from_wmem"),
            "cutting.wopt_from_wmem.cuts": sum(it for _, it in wopt),
            "cutting.wopt_from_wmem.self_s": self_s("cutting.wopt_from_wmem"),
            "cutting.wopt_from_wmem.cap_errors":
                errors("cutting.wopt_from_wmem", "IterationCapError"),
            "cutting.wopt_from_wmem.stop_gap": stops.count("gap"),
            "cutting.wopt_from_wmem.stop_threshold_large": stops.count("threshold-large"),
            "cutting.wopt_from_wmem.stop_threshold_upper": stops.count("threshold-upper"),
            "cutting.wval_from_wmem.calls": calls("cutting.wval_from_wmem"),
            "cutting.wval_from_wmem.self_s": self_s("cutting.wval_from_wmem"),
            "normdual.dual_norm_eval.calls": calls("normdual.dual_norm_eval"),
            "normdual.dual_norm_eval.self_s": self_s("normdual.dual_norm_eval"),
            "normdual.approx_from_wmem.steps": sum(noted("normdual.approx_from_wmem")),
            "normdual.approx_from_wmem.self_s": self_s("normdual.approx_from_wmem"),
            "normdual.rescale.self_s": self_s("normdual.rescale"),
            "normdual.dual_ball.query.calls": calls("normdual.dual_ball.query"),
            "normdual.dual_ball.query.self_s": self_s("normdual.dual_ball.query"),
            "normdual.dual_ball.query_batch.rows": ball_rows,
            "normdual.dual_ball.query_batch.screen_share":
                1.0 - lockstep_rows / ball_rows if ball_rows else 0.0,
            "normdual.dual_ball.query_batch.self_s":
                self_s("normdual.dual_ball.query_batch") + self_s("normdual.dual_ball.lockstep"),
            "normdual.dual_ball.query_batch.stragglers":
                sum(b.stragglers for b in self.dual_balls.values()),
            "conedual.dual_cone.query.calls": int(np.count_nonzero(cone)),
            "conedual.dual_cone.query.screen_share":
                float(np.count_nonzero(under[cone] == 0)) / np.count_nonzero(cone)
                if np.any(cone) else 0.0,
            "conedual.dual_cone.query.self_s": self_s("conedual.dual_cone.query"),
            "conedual.section_transfer.calls": calls("conedual.section_transfer"),
            "conedual.section_transfer.self_s": self_s("conedual.section_transfer"),
            "fenchel.fenchel_eval.calls": calls("fenchel.fenchel_eval"),
            "fenchel.fenchel_eval.self_s": self_s("fenchel.fenchel_eval"),
            "fenchel.epigraph.self_s": self_s("fenchel.epigraph"),
            "fenchel.min_via_wopt.calls": calls("fenchel.min_via_wopt"),
            "fenchel.min_via_wopt.self_s": self_s("fenchel.min_via_wopt"),
            "fenchel.min_via_wopt.certificate_errors":
                errors("fenchel.min_via_wopt", "CertificateError"),
            "mahler.volume_mc.calls": int(np.count_nonzero(vol)),
            "mahler.volume_mc.samples": int(size[vol].sum()),
            "mahler.volume_mc.self_s": self_s("mahler.volume_mc"),
            "mahler.linear_image.self_s": self_s("mahler.linear_image"),
            "mahler.mahler_volume.self_s": self_s("mahler.mahler_volume"),
        }
