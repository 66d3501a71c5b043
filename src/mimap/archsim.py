"""Cycle-level model of the multi-core MI accelerator.

Sixteen pipelined cores stream the scan lines of every heading, one cell
issue per core per cycle at best.  Timing obeys five micro-rules:

  1. a core issues at most one new cell per cycle, picked by scanning its
     ray slots round-robin from a rotating pointer and passing over slots
     whose banks are already claimed this cycle;
  2. a cell occupies one pipeline stage per cycle (19 stages total);
  3. consecutive cells of the same ray slot must issue at least 8 cycles
     apart (the feedback section, stages 11-18, carries the recursion
     state), so with 8 interleaved slots the dependency is fully hidden
     and with a single slot every cell pays the full spacing;
  4. per cycle each occupancy bank serves at most 2 reads, and each MI
     bank retires one accumulate (its single read and write port pair);
     accumulates queue in a small per-bank FIFO, and a core stalls when
     its cell's occupancy ports are exhausted or the FIFO is full, with
     cores arbitrated in ascending index order;
  5. cell (r, c) lives in bank (r + c) mod B in both memories, which makes
     any B consecutive cells along a row or column bank-distinct.

Work arrives as wrap units: with wrapping on, the scan lines of one
heading whose phases are congruent modulo the minor extent chain into one
equal-length unit, and units are dispatched in a stride-staggered order
so that units in flight at the same time sit on well-spread bank
diagonals; with wrapping off every line is its own unit and lines go out
in plain phase order.  Units are dealt round-robin to cores by a cursor
that persists across headings.

Each core keeps a window of live ray contexts (two per interleave slot)
that refill from its queue as units finish.  A context only accepts rays
of the heading the core is currently scanning, so headings change over
cleanly; with equal-length wrap units the service slack built up during
a heading exactly covers its drain and the changeover costs nothing,
while unequal bare lines leave the window starved and congested, which
is where the wrapping ablation's latency goes.  The one exception to the
heading gate is a starved tail: when fewer live rays remain than the
feedback spacing and none is ready, the core admits one next-heading ray
per idle beat instead of pacing out the stragglers.  When the scanner
passes over a contended ray it resumes there the next cycle rather than
a full rotation later, so one conflict costs one slip, not a pile-up.

The cycle loop visits only the awake cores, in ascending index order.
A core sleeps after an issue when nothing can touch it before that ray is
ready again: the ray just issued is its only live context, it will not
be ready on the next cycle, and no refill can come (its queue is empty or
its window is full).  It waits in a wake ring bucketed by cycle, and the
feedback-wait cycles it sleeps are added in one step when it goes to
sleep.  A core with no live context and an empty queue leaves for good
and is charged drain stalls up to the last cycle at the end of the run;
a core whose next unit is held by the heading gate skips its refill until
one of its contexts finishes; and each bank's MI FIFO is kept as the
cycle at which it runs empty, not drained one entry a cycle.  A free
ray context is never ready: its ready cycle is a sentinel above any
cycle the run reaches, so the candidate scan passes over free and
waiting contexts with one test.  Each core keeps its current scan order
itself, the slot list that starts at its rotating pointer.  None of
this changes timing or counts: every cycle and stall is that of a loop
over all cores on every cycle.

Timing never changes values: the returned MI map comes from the
fixed-point map engine, which the interleaving order cannot perturb
because the Q20.12 accumulator never saturates on in-range workloads.
"""

from array import array
from dataclasses import dataclass, replace
from math import gcd
from typing import ClassVar

import numpy as np

from .datapath import compute_mi_map_fxp
from .grid import CellCoord, FcmiParams, MIMap, OccupancyGrid, SensorConfig, family_table
from .gridio import read_lines

CONTEXTS_PER_SLOT = 2  # live ray contexts per pipeline slot
MI_QUEUE_DEPTH = 64    # per-bank accumulate FIFO entries
PIPELINE_STAGES = 19   # preprocess 1-10, feedback 11-18, postprocess 19
FEEDBACK_DEPTH = 8     # stages 11-18: min issue spacing of one ray slot
MAX_MAP = 512          # largest grid side the on-chip memories hold
CLOCK_HZ = 1e8         # core clock

# Per-event energy, calibrated, not measured: a stall cycle costs a quarter
# of an active cycle, static power is sized at 10% of the reference
# 201x201/60-ray/16-core run, and the remaining 90% splits 70/30 between
# core cycles and memory accesses, scaled so that run totals 1.7e-3 J.
E_CORE_CYCLE = 4.4068397774278455e-10   # J per issue cycle
E_STALL_CYCLE = 1.1017099443569614e-10  # J per stall cycle
E_MEM_ACCESS = 6.311724957303037e-11    # J per memory word access
E_STATIC_PER_S = 0.1110486915851221     # W of static power


@dataclass(frozen=True)
class ArchConfig:
    """Accelerator settings; each feature the paper ablates is one value.
    No banking is one bank (``n_banks=1``; ``None`` gives one per core).
    Interleaving keeps ``CONTEXTS_PER_SLOT * FEEDBACK_DEPTH`` ray contexts
    per core; without it one context pays the full feedback spacing.
    The clock is the constant ``CLOCK_HZ`` on every config."""

    clock_hz: ClassVar[float] = CLOCK_HZ

    n_cores: int = 16
    n_banks: int | None = None          # None -> n_cores
    interleaving: bool = True
    wrapping: bool = True

    def __post_init__(self):
        if self.n_cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.n_cores}")
        if self.n_banks is not None and self.n_banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.n_banks}")

    @property
    def eff_banks(self) -> int:
        return self.n_cores if self.n_banks is None else self.n_banks


@dataclass
class SimReport:
    """Timing, stalls and energy of one cycle-model run.

    ``memory_accesses["occ_reads"]`` holds the occupancy reads per bank.
    Each issued cell also reads and writes one MI word in the same bank,
    so the MI reads and writes per bank are the same numbers, and the
    energy charges three accesses per issued cell.  ``per_core_stalls``
    holds one ``(bank_conflict, feedback_wait, drain)`` triple per core;
    ``stall_cycles`` is their sum by cause.
    """

    total_cycles: int
    latency_s: float
    lower_bound_s: float
    stall_cycles: dict[str, int]
    per_core_busy: list[float]
    per_core_stalls: list[tuple[int, int, int]]
    energy_j: float
    memory_accesses: dict[str, np.ndarray]

    def busy_cycles(self) -> int:
        return int(round(sum(self.per_core_busy) * self.total_cycles))


def lower_bound_latency(shape: tuple[int, int], ray_count: int, n_cores: int) -> float:
    """One cell-visit per core per cycle with unlimited memory bandwidth."""
    height, width = shape
    if min(height, width, ray_count, n_cores) < 1:
        raise ValueError("all arguments must be positive")
    return height * width * ray_count / (n_cores * CLOCK_HZ)


def bank_of(coord: CellCoord, n_banks: int) -> int:
    """Diagonal banking: B consecutive cells along any row or column land
    in B distinct banks.  Also maps a (rows, cols) pair of index arrays
    elementwise."""
    if n_banks < 1:
        raise ValueError("bank count must be >= 1")
    return (coord[0] + coord[1]) % n_banks


def _stagger_stride(m: int, n_cores: int, n_banks: int) -> int:
    """Dispatch stride over a family's units, chosen near the golden
    fraction of the orbit count so that (a) any n_banks consecutive
    dispatches sit on distinct bank diagonals and (b) the units a single
    core holds in flight (every n_cores-th dispatch) do too."""
    target = max(1, round(0.382 * m))

    def spread(step: int) -> bool:
        return n_banks <= 1 or gcd(step % n_banks, n_banks) == 1

    for strict in (True, False):
        for d in range(m):
            for cand in (target - d, target + d):
                if not (1 <= cand < m and gcd(cand, m) == 1):
                    continue
                if not spread(cand):
                    continue
                if strict and not spread((n_cores * cand) % m):
                    continue
                return cand
    return 1


def _unit_ranges(fam, config: ArchConfig) -> list[tuple[int, int]]:
    """Per-angle unit list as (first_cell, end_cell) pairs in dispatch order."""
    if config.wrapping:
        m = fam.n_units
        size = len(fam.cells) // m
        k = _stagger_stride(m, config.n_cores, config.eff_banks)
        return [((j * k) % m * size, ((j * k) % m + 1) * size) for j in range(m)]
    order = np.argsort(fam.seg_phase, kind="stable")
    return [(int(fam.seg_start[s]), int(fam.seg_start[s + 1])) for s in order]


def _flat_schedule(bounds: tuple[int, int], sensor: SensorConfig, config: ArchConfig):
    """The kernel's three inputs, over the headings' concatenated line-family
    cells, H*W positions per heading: the bank of every position, a
    ``line_starts`` byte that is 1 at the first position of every line and
    at the closing end, and per core the queue of ``(lo, hi)`` position
    ranges of the units it is dealt.  Units go out round-robin in heading
    and dispatch order, so the dealing cursor persists across headings and
    per-core totals stay balanced."""
    table, fams = family_table(sensor.ray_count, *bounds)
    n_cells = table.shape[1]
    # int32 arithmetic: the table may be uint16, which a Python int
    # operand would keep (and a width of 65 536 overflow)
    width = np.int32(bounds[1])
    n_banks = config.eff_banks
    # 4 bytes a cell; a list would hold 8-byte pointers.  A heading at a
    # time: the whole table's temporaries would add 4 words a cell
    banks = array("i")
    for row in table:
        banks.frombytes(bank_of((row // width, row % width), n_banks)
                        .astype(np.int32, copy=False).tobytes())
    # each heading's line starts, offset to its positions; the end of
    # heading k is the start of heading k + 1, and the last the closing end
    flags = np.zeros(table.size + 1, dtype=np.uint8)
    flags[np.concatenate([f.seg_start + k * n_cells for k, f in enumerate(fams)])] = 1
    units = [(k * n_cells + lo, k * n_cells + hi)
             for k, fam in enumerate(fams) for lo, hi in _unit_ranges(fam, config)]
    n = config.n_cores
    return banks, flags.tobytes(), [units[i::n] for i in range(n)]


def _sim_kernel(banks, line_starts, queues, hw, n_banks, window):
    """Cycle loop over the awake cores until every dealt unit has issued
    its last cell.  Schedule position p is of heading p // ``hw`` (H*W).
    A core holds ``window`` ray contexts; with one, a unit that chains on
    into its next line waits out a second ``FEEDBACK_DEPTH``.

    A core that can only wait leaves the loop: it sleeps in a wake ring
    until its one live context is ready, or leaves for good once drained,
    and the stalls it would have counted meanwhile are added in one step.
    Every cycle still runs the five micro-rules over the cores that are
    awake, in ascending index order, so timing and counts are those of a
    loop that visits every core on every cycle.

    A free context's ready cycle is ``max_cycles + 1``, written when its
    unit ends and overwritten at refill, so a context is a candidate
    exactly when its ready cycle is not past ``t``, and a core has a
    ready live context exactly when ``min`` of its ready cycles is not.
    ``rot[i]`` is core i's scan order itself: ``orders[blocked]`` after
    a passed-over ray, else the order after the slot that issued.

    Returns ``(last_issue_cycle, mi_backlog, stalls)``: per core the
    bank-conflict, feedback-wait and drain stall counts.  Issues per core
    and per bank are fixed by the schedule (``_issue_counts``).  Raises
    RuntimeError if the run passes a cycle cap far above any real
    schedule.
    """
    n_cores = len(queues)
    gap = FEEDBACK_DEPTH
    chain_pen = FEEDBACK_DEPTH if window == 1 else 0
    slots = range(window)
    # a core's scan order from each slot, and the order that resumes
    # after each slot
    orders = [[(r + d) % window for d in slots] for r in slots]
    succ = orders[1:] + orders[:1]
    max_cycles = 16 * len(banks) + 1_000_000
    never = max_cycles + 1                   # ready cycle of a free context
    pos = [[-1] * window for _ in queues]    # next cell of a context; -1 free
    end = [[0] * window for _ in queues]     # its unit's end position
    ready = [[never] * window for _ in queues]  # first cycle it may issue again
    nlive = [0] * n_cores                    # live contexts per core
    # the heading gate holds a core's next unit until one of its contexts
    # finishes: till then its refill would find the same gate closed
    held = [False] * n_cores
    rot = [orders[0]] * n_cores              # a core's current scan order
    nxt = [0] * n_cores
    # the MI FIFO of bank b holds max(0, mi_empty[b] - t) accumulates at
    # cycle t: it retires one a cycle, so it is empty from mi_empty[b] on
    mi_empty = [0] * n_banks
    stalls = [[0, 0, 0] for _ in queues]
    drained = [0] * n_cores                  # cycle a core ran out of work
    # a sleeper wakes within gap + chain_pen cycles of its issue
    ring = [[] for _ in range(gap + chain_pen + 1)]
    n_ring = len(ring)
    awake = [i for i, queue in enumerate(queues) if queue]
    unfinished = sum(map(len, queues))
    t = 0
    while unfinished:
        wakers = ring[t % n_ring]
        if wakers:
            awake += wakers
            awake.sort()
            wakers.clear()
        if awake:
            occ = [0] * n_banks
            full = t + MI_QUEUE_DEPTH  # a FIFO emptying at this cycle is full
            issued = t + gap           # ready cycle of a context issuing now
            stay = []
            for i in awake:
                p, r = pos[i], ready[i]
                live = nlive[i]
                # refill free contexts from the core's queue; a context only
                # accepts rays of the heading the core is currently scanning,
                # so a new heading starts once the previous one fully drains
                if live < window and not held[i] and nxt[i] < len(queues[i]):
                    queue, k, e = queues[i], nxt[i], end[i]
                    for d in slots:
                        if p[d] >= 0:
                            heading = p[d] // hw
                            break
                    else:
                        heading = -1
                    for d in slots:
                        if k == len(queue):
                            break
                        if p[d] >= 0:
                            continue
                        lo, hi = queue[k]
                        h = lo // hw
                        trickle = heading >= 0 and h != heading
                        # starvation trickle: when the tail of a heading
                        # leaves fewer live rays than the feedback gap and
                        # none is ready this cycle, admit one ray of the
                        # next heading instead of idling the beat
                        if trickle and live >= gap:
                            held[i] = True
                            break
                        if trickle and min(r) <= t:
                            break
                        k += 1
                        live += 1
                        p[d], e[d], r[d] = lo, hi, t
                        if trickle:
                            break
                        heading = h
                    nxt[i] = k
                    nlive[i] = live
                # candidate: first ready context in rotation order whose
                # banks are still free this cycle; the bank-busy bitmap is
                # broadcast, so a core passes over contended rays and issues
                # another.  A free context is never ready
                blocked = -1
                for s in rot[i]:
                    if r[s] > t:
                        continue
                    ps = p[s]
                    b = banks[ps]
                    if occ[b] >= 2 or (m := mi_empty[b]) >= full:
                        if blocked < 0:
                            blocked = s
                        continue
                    break
                else:
                    # an awake core holds a live context after its refill
                    stalls[i][0 if blocked >= 0 else 1] += 1
                    stay.append(i)
                    continue
                occ[b] += 1
                mi_empty[b] = (m if m > t else t) + 1
                # resume the scan at the skipped slot if there was one: the
                # passed-over ray keeps its place at the head of the rotation
                # instead of waiting out a whole round
                rot[i] = orders[blocked] if blocked >= 0 else succ[s]
                ps += 1
                if ps == end[i][s]:
                    p[s] = -1
                    r[s] = never
                    live -= 1
                    nlive[i] = live
                    held[i] = False
                    unfinished -= 1
                    if not live and nxt[i] == len(queues[i]):
                        drained[i] = t + 1  # it idles while the run ends
                        continue
                else:
                    p[s] = ps
                    # a unit that chains on into its next line pays chain_pen
                    w = r[s] = (issued + chain_pen
                                if chain_pen and line_starts[ps] else issued)
                    if live == 1 and (live == window or nxt[i] == len(queues[i])):
                        # only the ray just issued is left and no refill can
                        # come: the core waits on feedback until it is ready,
                        # FEEDBACK_DEPTH cycles on at the earliest
                        stalls[i][1] += w - t - 1
                        ring[w % n_ring].append(i)
                        continue
                stay.append(i)
            awake = stay
        t += 1
        if t > max_cycles:
            raise RuntimeError("simulation exceeded the cycle safety cap")
    for i, row in enumerate(stalls):
        row[2] += t - drained[i]
    backlog = max(0, max(mi_empty) - t)
    return t - 1, backlog, stalls


def _issue_counts(banks, queues, hw, n_banks) -> tuple[list[int], np.ndarray]:
    """Issue cycles per core and accesses per bank of a schedule.  Every
    dealt position issues exactly once, on the core it was dealt to, so a
    core issues the positions of its ``(lo, hi)`` ranges and a bank once
    for each position in it; each issue reads one occupancy word and
    reads and writes one MI word in the same bank.  Each heading's ``hw``
    positions hold every cell once, so every heading holds the banks of
    the first; counting those alone casts H*W bank words to intp, not the
    whole schedule's."""
    busy = [sum(hi - lo for lo, hi in queue) for queue in queues]
    first = np.bincount(np.frombuffer(banks, dtype=np.intc, count=hw), minlength=n_banks)
    return busy, first * (len(banks) // hw)


def energy_of(busy_cycles: int, stall_cycles: int, mem_accesses: int,
              latency_s: float) -> float:
    return (E_CORE_CYCLE * busy_cycles
            + E_STALL_CYCLE * stall_cycles
            + E_MEM_ACCESS * mem_accesses
            + E_STATIC_PER_S * latency_s)


def simulate(grid: OccupancyGrid, sensor: SensorConfig = SensorConfig(),
             params: FcmiParams = FcmiParams(), config: ArchConfig = ArchConfig(),
             compute_values: bool = True) -> tuple[MIMap | None, SimReport]:
    """Run the cycle model; returns the fixed-point MI map and the report.

    ``compute_values=False`` skips the map (latency studies); timing is
    identical either way because values never influence the cycle loop.
    """
    height, width = grid.shape
    if max(height, width) > MAX_MAP:
        raise ValueError(f"grid {height}x{width} exceeds capacity {MAX_MAP}")
    window = CONTEXTS_PER_SLOT * FEEDBACK_DEPTH if config.interleaving else 1
    banks, line_starts, queues = _flat_schedule((height, width), sensor, config)
    last_issue, backlog, stalls = _sim_kernel(banks, line_starts, queues,
                                              height * width, config.eff_banks, window)
    busy, per_bank = _issue_counts(banks, queues, height * width, config.eff_banks)
    total_cycles = last_issue + PIPELINE_STAGES + 1 + backlog
    latency_s = total_cycles / CLOCK_HZ
    per_core_stalls = [tuple(row) for row in stalls]
    stall_cycles = dict(zip(("bank_conflict", "feedback_wait", "drain"),
                            map(sum, zip(*per_core_stalls))))
    energy = energy_of(sum(busy), sum(stall_cycles.values()),
                       3 * int(per_bank.sum()), latency_s)
    report = SimReport(
        total_cycles=total_cycles,
        latency_s=latency_s,
        lower_bound_s=lower_bound_latency(grid.shape, sensor.ray_count, config.n_cores),
        stall_cycles=stall_cycles,
        per_core_busy=[b / total_cycles for b in busy],
        per_core_stalls=per_core_stalls,
        energy_j=energy,
        memory_accesses={"occ_reads": per_bank},
    )
    mi = compute_mi_map_fxp(grid, sensor, params) if compute_values else None
    return mi, report


def scaling_sweep(grid: OccupancyGrid, sensor: SensorConfig, params: FcmiParams,
                  n_list: list[int],
                  config: ArchConfig = ArchConfig()) -> list[tuple[int, float, float]]:
    """Latency and energy per core count, with banks matched to cores."""
    rows = []
    for n in n_list:
        cfg = replace(config, n_cores=n, n_banks=n)
        _, rep = simulate(grid, sensor, params, cfg, compute_values=False)
        rows.append((n, rep.latency_s, rep.energy_j))
    return rows


def report_csv(report: SimReport) -> str:
    lines = ["metric,value",
             f"total_cycles,{report.total_cycles}",
             f"latency_s,{report.latency_s:.9e}",
             f"lower_bound_s,{report.lower_bound_s:.9e}",
             f"stall.bank_conflict,{report.stall_cycles['bank_conflict']}",
             f"stall.feedback_wait,{report.stall_cycles['feedback_wait']}",
             f"stall.drain,{report.stall_cycles['drain']}"]
    lines += [f"busy.core{i},{frac:.9f}"
              for i, frac in enumerate(report.per_core_busy)]
    lines.append(f"energy_j,{report.energy_j:.9e}")
    return "\n".join(lines) + "\n"


_TRUE = {"true", "1", "on", "yes"}
_FALSE = {"false", "0", "off", "no"}


def parse_config(path) -> ArchConfig:
    """Line-based ``key = value`` config; '#' starts a comment.  Every line
    is checked as it is read, so a bad value is reported at its line."""
    scalars: dict = {}
    config = ArchConfig()
    for line_no, raw_line in enumerate(read_lines(path), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key == "cores":
                scalars["n_cores"] = int(val)
            elif key == "banks":
                scalars["n_banks"] = int(val)
            elif key.startswith("features."):
                flag = key.split(".", 1)[1]
                if flag not in ("interleaving", "wrapping"):
                    raise ValueError(f"unknown feature {flag!r}")
                low = val.lower()
                if low not in _TRUE | _FALSE:
                    raise ValueError(f"not a boolean: {val!r}")
                scalars[flag] = low in _TRUE
            else:
                raise ValueError(f"unknown key {key!r}")
            # the values before this line passed, so a failure is its own
            config = ArchConfig(**scalars)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return config
