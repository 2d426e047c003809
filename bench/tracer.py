"""In-memory span tracer that wraps algwatchdog's public functions from outside.

Each wrapper replaces a function at the module (or class) attribute where
the package looks it up, records one span per call (name, start, end,
parent) and, for a few layers, a work count taken at the same boundary.
`uninstall` puts every original attribute back.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from algwatchdog import channel, gf2n, harness, hashing, protocol, theory, watchdog

ROOT = -1

# (owner, attribute, span name).  radius_for_epsilon is bound twice: the
# watchdog binding runs once per candidate set, the harness binding four
# times per run_trials call for the report's radii.
TRACE_POINTS = (
    (harness, "run_trials", "harness.run_trials"),
    (harness, "sample_hash", "hashing.sample"),
    (harness, "radius_for_epsilon", "harness.radius_for_epsilon"),
    (theory, "predict", "theory.predict"),
    (protocol.Scenario, "source_packet", "protocol.Scenario.source_packet"),
    (protocol, "relay_output", "protocol.relay_output"),
    (protocol, "observe", "protocol.observe"),
    (protocol, "evaluate", "hashing.evaluate"),
    (protocol, "transmit", "channel.transmit"),
    (watchdog, "algebraic_check", "watchdog.algebraic_check"),
    (watchdog, "build_trellis", "watchdog.build_trellis"),
    (watchdog, "consistency_probability", "watchdog.consistency_probability"),
    (watchdog, "radius_for_epsilon", "channel.radius_for_epsilon"),
    (watchdog, "ball_offsets", "channel.ball_offsets"),
    (channel, "binomial_cdf_exact", "channel.binomial_cdf_exact"),
    (hashing.HashFunction, "values_on", "hashing.values_on"),
    (gf2n.FieldSpec, "mul_words", "gf2n.mul_words"),
)

# spans whose result size is the number of words the layer worked on
_WORD_SPANS = {"gf2n.mul_words", "hashing.values_on"}


class Tracer:
    """Spans as parallel lists; `counts` holds work counted at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.words: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open = [ROOT]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in TRACE_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        counted = name in _WORD_SPANS
        diagnostics = name == "watchdog.algebraic_check"

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1])
            self.words.append(0)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._open.pop()
            if counted:
                self.words[idx] = np.size(result)
                if np.ndim(result) == 0:
                    self.counts[name + ".scalar_calls"] += 1
            elif diagnostics:
                for key in ("peer_candidates", "relay_candidates", "surviving"):
                    self.counts["watchdog." + key] += result.diagnostics[key]
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent != ROOT:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def layer_metrics(self, trials: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) pairs over every span, normalized by `trials`.

        Per-trial figures leave out the report epilogue: the harness binding of
        radius_for_epsilon and everything under it runs once per call.
        """
        epilogue = [False] * len(self.names)
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        words: dict[str, int] = defaultdict(int)
        checked_words = 0
        for i, (name, parent, own, n) in enumerate(zip(self.names, self.parents, self.self_times(), self.words)):
            parent_name = self.names[parent] if parent != ROOT else ""
            epilogue[i] = name == "harness.radius_for_epsilon" or (parent != ROOT and epilogue[parent])
            if epilogue[i]:
                continue
            calls[name] += 1
            self_s[name] += own
            words[name] += n
            if name == "hashing.values_on" and parent_name == "watchdog.algebraic_check":
                checked_words += n

        checks = calls["watchdog.algebraic_check"]
        kept = self.counts["watchdog.peer_candidates"] + self.counts["watchdog.relay_candidates"]

        def per_trial(name: str) -> tuple[float, str]:
            return calls[name] / trials, "calls/trial"

        def self_ms(name: str) -> tuple[float, str]:
            return 1000 * self_s[name] / trials, "ms/trial"

        def mean(key: str) -> tuple[float, str]:
            return (self.counts[key] / checks if checks else 0.0), "words"

        predicts = calls["theory.predict"]
        return {
            "channel.radius_for_epsilon.calls_per_trial": per_trial("channel.radius_for_epsilon"),
            "channel.radius_for_epsilon.self_ms_per_trial": self_ms("channel.radius_for_epsilon"),
            "channel.binomial_cdf_exact.calls_per_trial": per_trial("channel.binomial_cdf_exact"),
            "channel.binomial_cdf_exact.self_ms_per_trial": self_ms("channel.binomial_cdf_exact"),
            "channel.ball_offsets.calls_per_trial": per_trial("channel.ball_offsets"),
            "channel.transmit.self_ms_per_trial": self_ms("channel.transmit"),
            "gf2n.mul_words.calls_per_trial": per_trial("gf2n.mul_words"),
            "gf2n.mul_words.scalar_calls_per_trial": (
                self.counts["gf2n.mul_words.scalar_calls"] / trials, "calls/trial"),
            "gf2n.mul_words.words_per_trial": (words["gf2n.mul_words"] / trials, "words/trial"),
            "gf2n.mul_words.self_ms_per_trial": self_ms("gf2n.mul_words"),
            "hashing.values_on.calls_per_trial": per_trial("hashing.values_on"),
            "hashing.values_on.words_per_trial": (words["hashing.values_on"] / trials, "words/trial"),
            "hashing.values_on.self_ms_per_trial": self_ms("hashing.values_on"),
            "hashing.evaluate.calls_per_trial": per_trial("hashing.evaluate"),
            "hashing.evaluate.self_ms_per_trial": self_ms("hashing.evaluate"),
            "hashing.sample.self_ms_per_trial": self_ms("hashing.sample"),
            "watchdog.algebraic_check.self_ms_per_trial": self_ms("watchdog.algebraic_check"),
            "watchdog.peer_candidates.mean": mean("watchdog.peer_candidates"),
            "watchdog.relay_candidates.mean": mean("watchdog.relay_candidates"),
            "watchdog.surviving.mean": mean("watchdog.surviving"),
            "watchdog.candidate_keep_ratio": ((kept / checked_words if checked_words else 0.0), "ratio"),
            "watchdog.build_trellis.self_ms_per_trial": self_ms("watchdog.build_trellis"),
            "watchdog.consistency_probability.self_ms_per_trial": self_ms("watchdog.consistency_probability"),
            "protocol.observe.self_ms_per_trial": self_ms("protocol.observe"),
            "protocol.relay_output.self_ms_per_trial": self_ms("protocol.relay_output"),
            "protocol.Scenario.source_packet.self_ms_per_trial": self_ms("protocol.Scenario.source_packet"),
            "theory.predict.self_ms_per_call": (
                (1000 * self_s["theory.predict"] / predicts if predicts else 0.0), "ms/call"),
            "harness.run_trials.self_ms_per_trial": self_ms("harness.run_trials"),
        }

    def write(self, path) -> None:
        """Dump every span as [name index, start ns, end ns, parent index]."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write('{"names": %s, "fields": ["name", "start_ns", "end_ns", "parent"], "spans": [\n'
                    % json.dumps(list(index)))
            rows = zip(self.names, self.starts, self.ends, self.parents)
            f.write(",\n".join(
                f"[{index[n]},{round((s - t0) * 1e9)},{round((e - t0) * 1e9)},{p}]" for n, s, e, p in rows))
            f.write("\n]}\n")
