"""Baseline-diff attribution: from a flagged window to ranked suspects.

The :class:`Attributor` rides next to the
:class:`~repro.live.anomaly.BpsAnomalyDetector` and follows the same
learning rule: every window the detector does *not* flag folds its
:class:`~repro.diagnose.graph.WindowGraph` summary into a rolling
baseline (``deque(maxlen=history)``, ``min_history`` warm-up); every
window it *does* flag is diffed against that baseline and the diff is
compiled into ranked, typed :class:`Suspect`\\ s.

Suspect taxonomy (the classes the fault-plan ground truth scores):

- ``server-stall`` — failed requests and retries concentrated on one
  server: the crash signature (the retry middleware records every
  attempt, so a dead server shows up as failures *attributed to it*);
- ``server-degrade`` — one server's response time and clipped-union
  occupancy share elevated relative to the others, still completing,
  no failures: device degradation / queue saturation;
- ``link-degrade`` — either one server's requests stalled at wire
  scale (response time at a large multiple of baseline *and* a sizable
  fraction of the window, zero failures — a downed link holds
  messages, it never fails them), or latency uniformly inflated across
  servers with no concentration (shared-path latency spike);
- ``straggler`` — one pid's response time stretched across servers
  while the other pids track baseline;
- ``retry-storm`` — a pid's retry count far above baseline (usually a
  *symptom* riding below a ``server-stall``, hence its low score cap);
- ``window-stall`` — the flagged window saw no records at all and the
  lookback found nothing in flight either; the catch-all symptom,
  ranked last.

A window with *no* records is not evidence-free: when clients block on
a dead or parked component they stop issuing, so the proof lives in an
earlier window whose requests are still running through the flagged
one.  The attributor retains the last ``history`` closed graphs and an
**absence lookback** checks, for every baseline principal missing from
the flagged window, whether its last-seen requests reach into the
window (per-principal max completion time) — classifying the find by
the same failure/stall-ratio/latency bands as the direct rules.

Scores are dimensionless and deliberately banded so that stronger
evidence classes outrank weaker ones when several fire at once
(failures > stalls > latency shifts > retry symptoms); within a class
the score grows with the baseline deviation.  All accumulation is
commutative and the diff is deterministic, so streaming and offline
runs over the same records rank identically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.diagnose.graph import DiagnoseError, TraceGraph, WindowGraph
from repro.faults import plan as _fault_plan

#: Suspect kinds (the taxonomy above).
SERVER_STALL = "server-stall"
SERVER_DEGRADE = "server-degrade"
LINK_DEGRADE = "link-degrade"
STRAGGLER = "straggler"
RETRY_STORM = "retry-storm"
WINDOW_STALL = "window-stall"

SUSPECT_KINDS = (SERVER_STALL, SERVER_DEGRADE, LINK_DEGRADE,
                 STRAGGLER, RETRY_STORM, WINDOW_STALL)

#: Injected fault kind -> suspect kinds that count as a correct
#: attribution (the precision/recall harness's answer key).
FAULT_KIND_SUSPECTS = {
    _fault_plan.SERVER_CRASH: (SERVER_STALL, WINDOW_STALL),
    _fault_plan.DEVICE_DEGRADE: (SERVER_DEGRADE,),
    _fault_plan.SERVER_SLOWDOWN: (SERVER_DEGRADE,),
    _fault_plan.LINK_DOWN: (LINK_DEGRADE,),
    _fault_plan.LINK_LATENCY: (LINK_DEGRADE,),
    _fault_plan.STRAGGLER: (STRAGGLER,),
    _fault_plan.DEVICE_FAULTS: (SERVER_DEGRADE, RETRY_STORM,
                                SERVER_STALL),
}


@dataclass(frozen=True)
class Suspect:
    """One ranked root-cause candidate for a flagged window."""

    kind: str
    target: str
    score: float
    evidence: str

    def as_event(self) -> dict:
        return {"kind": self.kind, "target": self.target,
                "score": self.score, "evidence": self.evidence}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    """Robust centre for latency baselines: a fault's own unflagged
    lead-in windows (slow but above the drop threshold) land in the
    baseline too, and a mean would let them dilute every later ratio."""
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


class Attributor:
    """Rolling-baseline root-cause attribution for flagged windows."""

    def __init__(
        self,
        *,
        window: float,
        origin: float | None = None,
        server_of: Callable | None = None,
        block_size: int = 512,
        history: int = 8,
        min_history: int = 3,
        max_suspects: int = 5,
        min_ops: int = 1,
        min_failures: int = 1,
        latency_factor: float = 2.0,
        concentration: float = 1.5,
        stall_ratio: float = 12.0,
        stall_span: float = 0.25,
    ) -> None:
        if history < 1 or min_history < 1 or min_history > history:
            raise DiagnoseError(
                f"bad history configuration ({history}, {min_history})")
        if latency_factor <= 1.0 or concentration <= 1.0:
            raise DiagnoseError("ratio thresholds must be > 1")
        if not 0.0 < stall_span <= 1.0:
            raise DiagnoseError(f"bad stall span {stall_span}")
        self.graph = TraceGraph(window=window, origin=origin,
                                server_of=server_of,
                                block_size=block_size)
        self.window = float(window)
        self.min_history = min_history
        self.max_suspects = max_suspects
        self.min_ops = min_ops
        self.min_failures = min_failures
        self.latency_factor = latency_factor
        self.concentration = concentration
        self.stall_ratio = stall_ratio
        self.stall_span = stall_span
        self._baseline: deque[dict] = deque(maxlen=history)
        #: Recently closed graphs (healthy AND flagged), for the
        #: absence lookback: a window with no records still has
        #: evidence in the earlier windows whose requests are running
        #: through it.
        self._recent: deque[WindowGraph] = deque(maxlen=history)

    @classmethod
    def for_detector(cls, detector, *, window: float,
                     origin: float | None = None,
                     server_of=None, **kwargs) -> "Attributor":
        """An attributor mirroring a detector's learning horizon."""
        return cls(window=window, origin=origin, server_of=server_of,
                   history=detector.history,
                   min_history=detector.min_history, **kwargs)

    # -- feed --------------------------------------------------------------

    def add_chunk(self, chunk) -> None:
        self.graph.add_chunk(chunk)

    # -- learn / diff ------------------------------------------------------

    def observe_window(self, stats, anomaly) -> tuple[Suspect, ...]:
        """Settle one closed window: learn it, or attribute the flag.

        Call once per closed window, in index order, with the window's
        :class:`~repro.live.stream.WindowStats` and the detector's
        verdict for it (None = healthy).  Healthy windows join the
        rolling baseline; flagged windows are diffed and return ranked
        suspects (empty during warm-up — no baseline, no evidence).
        """
        graph = self.graph.pop_window(stats.index)
        suspects: tuple[Suspect, ...] = ()
        if anomaly is None:
            if not self._tainted(graph):
                self._baseline.append(self._summarize(graph, stats))
        elif len(self._baseline) >= self.min_history:
            suspects = tuple(self._diff(graph, stats)
                             [: self.max_suspects])
        self._recent.append(graph)
        return suspects

    def _tainted(self, graph: WindowGraph) -> bool:
        """Failure-bearing windows never join the baseline, even when
        the detector kept quiet: fail-fast attempts *raise* windowed
        BPS (thousands of instant completions), so a crash's own
        windows sail under a drop detector while carrying the
        evidence — learning them would poison every later diff."""
        if graph.failures < self.min_failures:
            return False
        if len(self._baseline) < self.min_history:
            return True
        b_fail = _mean(e["failures"] for e in self._baseline)
        return graph.failures > 2.0 * b_fail

    def _summarize(self, graph: WindowGraph, stats) -> dict:
        io_time = stats.io_time
        servers = {}
        for server, (ops, dur, retries, failures) in \
                graph.by_server().items():
            share = (graph.occupancy.get(server, 0.0) / io_time
                     if io_time > 0 else 0.0)
            servers[server] = (ops, dur / ops if ops else 0.0,
                               retries, failures, share)
        pids = {}
        for pid, (ops, dur, retries, _failures) in graph.by_pid().items():
            pids[pid] = (ops, dur / ops if ops else 0.0, retries)
        ops = graph.ops
        return {
            "ops": ops,
            "lat": graph.dur_sum / ops if ops else 0.0,
            "failures": graph.failures,
            "srv": servers,
            "pid": pids,
        }

    def _merged_baseline(self) -> dict:
        entries = list(self._baseline)
        base = {
            "ops": _mean(e["ops"] for e in entries),
            "lat": _median(e["lat"] for e in entries if e["ops"]),
            "srv": {},
            "pid": {},
        }
        servers = {s for e in entries for s in e["srv"]}
        for s in servers:
            rows = [e["srv"].get(s, (0, 0.0, 0, 0, 0.0)) for e in entries]
            lat_rows = [r[1] for r in rows if r[0] > 0]
            base["srv"][s] = {
                "ops": _mean(r[0] for r in rows),
                "lat": _median(lat_rows),
                "retries": _mean(r[2] for r in rows),
                "failures": _mean(r[3] for r in rows),
                "share": _mean(r[4] for r in rows),
            }
        pids = {p for e in entries for p in e["pid"]}
        for p in pids:
            rows = [e["pid"].get(p, (0, 0.0, 0)) for e in entries]
            lat_rows = [r[1] for r in rows if r[0] > 0]
            base["pid"][p] = {
                "ops": _mean(r[0] for r in rows),
                "lat": _median(lat_rows),
                "retries": _mean(r[2] for r in rows),
            }
        return base

    # -- diff rules --------------------------------------------------------

    def _diff(self, graph: WindowGraph, stats) -> list[Suspect]:
        base = self._merged_baseline()
        suspects: list[Suspect] = []
        by_server = graph.by_server()
        by_pid = graph.by_pid()
        io_time = stats.io_time

        # 1. server-stall: failures concentrated on one server (the
        # retry middleware records every attempt, so a dead server
        # shows up as failures attributed to it).
        total_failures = graph.failures
        for server, (ops, dur, retries, failures) in \
                sorted(by_server.items()):
            b = base["srv"].get(server)
            b_fail = b["failures"] if b else 0.0
            if failures < self.min_failures or \
                    failures <= 2.0 * b_fail:
                continue
            conc = failures / total_failures
            if conc < 0.6:
                continue
            score = 100.0 * conc + min(failures - b_fail, 100.0)
            suspects.append(Suspect(
                kind=SERVER_STALL, target=server, score=score,
                evidence=(f"{server} stall: {failures} failed requests "
                          f"vs baseline {b_fail:.1f} "
                          f"({retries} retries, "
                          f"{conc:.0%} of window failures)")))

        # 1b. server-stall, recovery form: the flagged window often
        # holds no failures at all — the dip *follows* the outage
        # (clients sat in backoff, then drained) — but the requests
        # that survived carry their retry counts, concentrated on the
        # server that refused them.
        total_retries = graph.retries
        for server, (ops, dur, retries, failures) in \
                sorted(by_server.items()):
            b = base["srv"].get(server)
            b_retries = b["retries"] if b else 0.0
            if retries < 4 or retries < 4.0 * (b_retries + 1.0):
                continue
            conc = retries / total_retries
            if conc < 0.6:
                continue
            score = 40.0 + min(retries - b_retries, 30.0)
            suspects.append(Suspect(
                kind=SERVER_STALL, target=server, score=score,
                evidence=(f"{server} stall: survivors carry {retries} "
                          f"retries vs baseline {b_retries:.1f} "
                          f"({conc:.0%} of window retries) — "
                          f"recovering from refused requests")))

        # Latency ratios per server / pid (where the baseline can speak).
        def ratios(rows: dict, base_rows: dict) -> dict:
            out = {}
            for key, (ops, dur, _r, *_f) in rows.items():
                b = base_rows.get(key)
                if ops < self.min_ops or not b or b["lat"] <= 0.0:
                    continue
                out[key] = (dur / ops) / b["lat"]
            return out

        srv_ratio = ratios(by_server, base["srv"])
        pid_ratio = ratios(by_pid, base["pid"])

        def others_mean(table: dict, key) -> float:
            rest = [v for k, v in table.items() if k != key]
            return _mean(rest) if rest else 1.0

        def pid_claims(pid) -> bool:
            """Does the straggler rule fire for this pid?"""
            ratio = pid_ratio.get(pid)
            return (ratio is not None
                    and ratio >= self.latency_factor
                    and ratio >= self.concentration
                    * others_mean(pid_ratio, pid))

        # Symmetric blame resolution for the single-edge ambiguity
        # ("pid slow wholly on server s" vs "s slow wholly via pid"):
        # a server that gave *another* pid baseline-grade service in
        # this very window is exonerated — the slow pid is the cause;
        # a pid whose slow time sits wholly on a non-exonerated slow
        # server is exonerated the other way round.
        def server_pid_rows(server) -> dict:
            rows: dict = {}
            for e in graph.edges:
                if e.server == server:
                    row = rows.setdefault(e.pid, [0, 0.0])
                    row[0] += e.ops
                    row[1] += e.dur_sum
            return rows

        def server_exonerated(server) -> bool:
            b = base["srv"].get(server)
            if not b or b["lat"] <= 0.0:
                return False
            rows = server_pid_rows(server)
            if len(rows) < 2:
                return False
            slowest = max(rows, key=lambda p: rows[p][1])
            return any(
                dur / ops < self.latency_factor * b["lat"]
                for p, (ops, dur) in rows.items()
                if p != slowest and ops)

        def pid_suppressed(pid) -> bool:
            per_server: dict = {}
            for e in graph.edges:
                if e.pid == pid:
                    per_server[e.server] = \
                        per_server.get(e.server, 0.0) + e.dur_sum
            total = sum(per_server.values())
            if total <= 0.0:
                return False
            server, top = max(per_server.items(),
                              key=lambda kv: (kv[1], kv[0]))
            if top < 0.6 * total:
                return False
            ratio = srv_ratio.get(server)
            return (ratio is not None
                    and ratio >= self.latency_factor
                    and not server_exonerated(server))

        # 2/3. per-server shifts: wire-stall vs queue saturation.
        for server, ratio in sorted(srv_ratio.items()):
            others = others_mean(srv_ratio, server)
            if ratio < self.latency_factor or \
                    ratio < self.concentration * others:
                continue
            if server_exonerated(server):
                continue
            ops, dur, retries, failures = by_server[server]
            mean_dur = dur / ops
            b = base["srv"][server]
            share = (graph.occupancy.get(server, 0.0) / io_time
                     if io_time > 0 else 0.0)
            if failures == 0 and ratio >= self.stall_ratio and \
                    mean_dur >= self.stall_span * self.window:
                # Held at the wire: huge, window-scale response times
                # with zero failures — a downed link never fails a
                # request, it parks it.
                score = 20.0 + min(ratio, 30.0)
                suspects.append(Suspect(
                    kind=LINK_DEGRADE, target=server, score=score,
                    evidence=(f"{server} link stall: response time "
                              f"{ratio:.1f}x baseline "
                              f"({mean_dur:.3g}s mean vs "
                              f"{self.window:.3g}s window), 0 failures")))
            else:
                score = 12.0 + min(ratio, 20.0)
                suspects.append(Suspect(
                    kind=SERVER_DEGRADE, target=server, score=score,
                    evidence=(f"{server} queue saturation: union share "
                              f"{share:.2f} vs baseline "
                              f"{b['share']:.2f}, response time "
                              f"{ratio:.1f}x baseline")))

        # 4. straggler: one pid stretched while the rest track baseline.
        for pid, ratio in sorted(pid_ratio.items()):
            if not pid_claims(pid) or pid_suppressed(pid):
                continue
            score = 10.0 + min(ratio, 20.0)
            suspects.append(Suspect(
                kind=STRAGGLER, target=str(pid), score=score,
                evidence=(f"pid {pid} straggler: response time "
                          f"{ratio:.1f}x baseline while other pids run "
                          f"{others_mean(pid_ratio, pid):.1f}x")))

        # 5. absence lookback: a principal that vanished mid-flight.
        # The flagged window itself may hold nothing — when clients
        # block on a dead or parked component they stop issuing, so
        # the evidence lives in the earlier window whose requests are
        # still running *through* this one (window-of-start bucketing
        # keeps their full durations there).
        suspects.extend(self._absent_server_suspects(
            graph, stats, base, by_server, by_pid))
        suspects.extend(self._absent_pid_suspects(
            graph, stats, base, by_pid))

        # 6. link-degrade, shared-path form: everyone slower, nobody
        # singled out (rules 2-5 all passed on concentration).
        if not suspects and base["lat"] > 0.0 and graph.ops:
            global_ratio = (graph.dur_sum / graph.ops) / base["lat"]
            concentrated = any(
                r >= self.concentration * others_mean(srv_ratio, k)
                for k, r in srv_ratio.items()) or any(
                r >= self.concentration * others_mean(pid_ratio, k)
                for k, r in pid_ratio.items())
            if global_ratio >= self.latency_factor and not concentrated:
                score = 15.0 + min(global_ratio, 20.0)
                suspects.append(Suspect(
                    kind=LINK_DEGRADE, target="network", score=score,
                    evidence=(f"link degrade: latency edge weight "
                              f"{global_ratio:.1f}x baseline across "
                              f"{max(len(by_server), 1)} server(s), "
                              f"no single-target concentration")))

        # 7. retry-storm: symptom-grade, capped below everything above.
        for pid, (ops, dur, retries, _failures) in sorted(by_pid.items()):
            b = base["pid"].get(pid)
            b_retries = b["retries"] if b else 0.0
            if retries < 5 or retries <= 4.0 * (b_retries + 1.0):
                continue
            score = 1.0 + min((retries - b_retries) / 10.0, 8.0)
            suspects.append(Suspect(
                kind=RETRY_STORM, target=str(pid), score=score,
                evidence=(f"pid {pid} retry storm: {retries} retries "
                          f"vs baseline {b_retries:.1f}")))

        # 8. window-stall: the catch-all symptom — kept cheap so any
        # localizing evidence (rules 1-7) outranks it.
        if graph.ops == 0:
            suspects.append(Suspect(
                kind=WINDOW_STALL, target="window", score=5.0,
                evidence=(f"window [{stats.start:.6g}, {stats.end:.6g}) "
                          f"fully stalled: 0 records vs baseline "
                          f"{base['ops']:.1f} ops/window")))

        best: dict = {}
        for s in suspects:
            held = best.get((s.kind, s.target))
            if held is None or s.score > held.score:
                best[(s.kind, s.target)] = s
        suspects = list(best.values())
        suspects.sort(key=lambda s: (-s.score, s.kind, s.target))
        return suspects

    def _pid_explains(self, g: WindowGraph, server, base,
                      by_pid) -> bool:
        """Is a lookback server's slow window fully explained by ONE
        straggling pid?  Then the pid owns the blame, not the wire.
        Several pids slow on the same server is the converse proof —
        the server (or its link) is the common cause; and a flagged
        window where (nearly) *everyone* went quiet is a systemic
        stall no single pid explains."""
        if len(base["pid"]) < 2:
            return False
        present = sum(1 for p in base["pid"]
                      if by_pid.get(p, (0,))[0] > 0)
        if present * 2 < len(base["pid"]):
            return False
        b = base["srv"].get(server)
        if not b or b["lat"] <= 0.0:
            return False
        rows: dict = {}
        for e in g.edges:
            if e.server == server:
                row = rows.setdefault(e.pid, [0, 0.0])
                row[0] += e.ops
                row[1] += e.dur_sum
        slow = [p for p, (n, d) in rows.items()
                if n and d / n >= self.latency_factor * b["lat"]]
        if len(slow) != 1:
            return False
        total = sum(d for _n, d in rows.values())
        return rows[slow[0]][1] >= 0.8 * total

    def _absent_server_suspects(self, graph, stats, base,
                                by_server, by_pid) -> list[Suspect]:
        """Servers missing from the flagged window whose last-seen
        requests are still in flight through it."""
        reach_floor = stats.start + self.stall_span * self.window
        out: list[Suspect] = []
        for server, b in sorted(base["srv"].items()):
            if b["ops"] < 0.5 or b["lat"] <= 0.0:
                continue
            if by_server.get(server, (0,))[0] > 0:
                continue
            found = self._last_active(
                server, lambda g: g.by_server(),
                lambda g: g.max_end, stats.index)
            if found is None:
                continue
            g, (ops, dur, retries, failures), reach = found
            if failures > 0:
                # Fail-fast attempts end instantly, so a crashed
                # server's reach never extends — failures plus silence
                # IS the crash signature, no in-flight proof needed.
                out.append(Suspect(
                    kind=SERVER_STALL, target=server,
                    score=50.0 + min(5.0 * failures, 30.0),
                    evidence=(f"{server} stall: {failures} failed "
                              f"requests in window {g.index}, nothing "
                              f"completed since")))
                continue
            if reach < reach_floor:
                continue
            ratio = (dur / ops) / b["lat"]
            if ratio < self.latency_factor:
                continue
            if self._pid_explains(g, server, base, by_pid):
                continue
            if reach >= stats.end and stats.index - g.index >= 2:
                # The requests issued back then are STILL in flight
                # past this entire window and the server has been
                # start-silent for 2+ windows — only a wire hold does
                # that; a merely saturated device keeps starting (and
                # completing) work almost every window.
                out.append(Suspect(
                    kind=LINK_DEGRADE, target=server,
                    score=20.0 + min(ratio, 30.0),
                    evidence=(f"{server} link stall: requests issued "
                              f"in window {g.index} held "
                              f"{ratio:.1f}x baseline and still in "
                              f"flight past this window")))
            else:
                out.append(Suspect(
                    kind=SERVER_DEGRADE, target=server,
                    score=12.0 + min(ratio, 20.0),
                    evidence=(f"{server} queue saturation: window "
                              f"{g.index} requests {ratio:.1f}x "
                              f"baseline and still draining")))
        return out

    def _absent_pid_suspects(self, graph, stats, base,
                             by_pid) -> list[Suspect]:
        """Pids missing from the flagged window mid-flight — only when
        the *other* pids kept completing (otherwise the stall is
        global, and rule 5's server form owns it)."""
        if len(base["pid"]) < 2:
            return []
        present = sum(1 for p in base["pid"]
                      if by_pid.get(p, (0,))[0] > 0)
        if present * 2 < len(base["pid"]):
            return []
        reach_floor = stats.start + self.stall_span * self.window
        out: list[Suspect] = []
        for pid, b in sorted(base["pid"].items()):
            if b["ops"] < 0.5 or b["lat"] <= 0.0:
                continue
            if by_pid.get(pid, (0,))[0] > 0:
                continue
            found = self._last_active(
                pid, lambda g: g.by_pid(),
                lambda g: g.pid_max_end, stats.index)
            if found is None:
                continue
            g, (ops, dur, retries, failures), reach = found
            if reach < reach_floor:
                continue
            ratio = (dur / ops) / b["lat"]
            if ratio < self.latency_factor:
                continue
            out.append(Suspect(
                kind=STRAGGLER, target=str(pid),
                score=10.0 + min(ratio, 20.0),
                evidence=(f"pid {pid} straggler: window {g.index} "
                          f"requests {ratio:.1f}x baseline and still "
                          f"in flight while other pids complete")))
        return out

    def _last_active(self, key, rows_of, reach_of, before_index):
        """Most recent retained graph where ``key`` completed ops."""
        for g in reversed(self._recent):
            if g.index >= before_index:
                continue
            row = rows_of(g).get(key)
            if not row or row[0] == 0:
                continue
            return g, tuple(row), reach_of(g).get(key, -math.inf)
        return None


def ranked_suspects(anomalies) -> tuple[Suspect, ...]:
    """All suspects across a run's anomalies, strongest first."""
    out: list[Suspect] = []
    for anomaly in anomalies:
        out.extend(getattr(anomaly, "suspects", ()))
    out.sort(key=lambda s: (-s.score, s.kind, s.target))
    return tuple(out)
