"""Independent oracles the test suite checks the package against.

Everything here is implemented from the defining math, deliberately not
sharing code with the package: scan-line enumeration as a scalar walk of
the rounding rule (the package's line families are its only twin), the
log-odds map update as a per-cell fold over sets of observed cells,
hop counts by a breadth-first queue, the accelerator's timing as a loop
that visits every core on every cycle, beam MI as a from-scratch recursion
per pose, the Q20.12 datapath as a scalar chain of word ops with its own
rounding and saturation count and its exponential as 2^-(n+f) from
knots of its own, gammas by adaptive quadrature, and table constants at
50-digit precision.
"""

import math
from collections import deque

import mpmath
import numpy as np
from scipy import integrate

mpmath.mp.dps = 50

Q_FRAC_BITS = 12
Q_SCALE = 1 << Q_FRAC_BITS


# ---------------------------------------------------------------- lines

def line_direction(angle: float) -> tuple[bool, int, float]:
    """(major axis is the column axis, major step sign, minor/major slope)."""
    dc, dr = math.cos(angle), math.sin(angle)
    if abs(dc) >= abs(dr):
        return True, (1 if dc > 0 else -1), dr / dc
    return False, (1 if dr > 0 else -1), dc / dr


def oracle_beam_cells(start: tuple[int, int], angle: float,
                      bounds: tuple[int, int]) -> list[tuple[int, int]]:
    """Beam cells from the pose to the grid edge, pose first.

    Scalar walk of the shared-line rule: the minor coordinate at major
    coordinate u is phase + floor(slope*u + 0.5), with the phase fixed by
    the pose; the walk ends at the first cell outside the grid.
    """
    height, width = bounds
    r0, c0 = start
    major_is_col, step, slope = line_direction(angle)
    if major_is_col:
        u, v0, u_lim, v_lim = c0, r0, width, height
    else:
        u, v0, u_lim, v_lim = r0, c0, height, width
    phase = v0 - math.floor(slope * u + 0.5)
    out = []
    while 0 <= u < u_lim:
        v = phase + math.floor(slope * u + 0.5)
        if not 0 <= v < v_lim:
            break
        out.append((v, u) if major_is_col else (u, v))
        u += step
    return out


def oracle_scan_ray(occupied: np.ndarray, pose: tuple[int, int],
                    angle: float, resolution: float, max_range: float
                    ) -> tuple[list[tuple[int, int]], tuple[int, int] | None]:
    """One range-sensor ray: (free cells from the pose, first occupied
    cell or None).  The beam holds int(max_range / w) + 1 cells at most,
    w being the major-axis chord resolution / max(|cos|, |sin|); a range
    whose quotient overflows to infinity cuts nothing, as an infinite
    one does."""
    beam = oracle_beam_cells(pose, angle, occupied.shape)
    reach = max_range / (resolution / max(abs(math.cos(angle)), abs(math.sin(angle))))
    if math.isfinite(reach):
        beam = beam[:int(reach) + 1]
    for n, cell in enumerate(beam):
        if occupied[cell]:
            return beam[:n], cell
    return beam, None


def family_line(fam, i: int) -> np.ndarray:
    """Line ``i`` of a line family: its flat cells in scan order, the
    slice of ``fam.cells`` between ``fam.seg_start[i]`` and the next
    line's start."""
    return fam.cells[fam.seg_start[i]:fam.seg_start[i + 1]]


def ray_coords(scan, i: int, width: int
               ) -> tuple[list[tuple[int, int]], tuple[int, int] | None]:
    """Beam ``i`` of a scan, its flat cell indices as (row, col) pairs, in
    the form ``oracle_scan_ray`` returns: (traversed cells, hit cell or
    None).  The beam traversed ``scan.cells[scan.start[i]:scan.start[i +
    1]]``, and ``scan.hits[i]`` is its hit, -1 for none."""
    cells = scan.cells[scan.start[i]:scan.start[i + 1]]
    hit = int(scan.hits[i])
    return ([divmod(int(cell), width) for cell in cells],
            None if hit == -1 else divmod(hit, width))


def dda_beam_cells(start: tuple[int, int], angle: float,
                   bounds: tuple[int, int]) -> list[tuple[int, int]]:
    """Incremental DDA anchored at the pose: accumulate the real minor
    coordinate one major step at a time and round it at each cell, ties
    toward the positive minor axis.  Agrees with the shared rule whenever
    the pose sits at major coordinate 0."""
    height, width = bounds
    r0, c0 = start
    major_is_col, step, slope = line_direction(angle)
    out = []
    minor_real = float(r0 if major_is_col else c0)
    k = 0
    while True:
        v = math.floor(minor_real + 0.5)
        if major_is_col:
            r, c = v, c0 + k * step
        else:
            r, c = r0 + k * step, v
        if not (0 <= r < height and 0 <= c < width):
            break
        out.append((r, c))
        minor_real += slope * step  # minor advance per major step
        k += 1
    return out


def oracle_touched_lanes(cells: np.ndarray, lane_start: np.ndarray,
                         lane_len: np.ndarray, changed: np.ndarray) -> np.ndarray:
    """Mask of the lanes that hold a cell flagged in the boolean
    ``changed``, lane j reading ``cells[lane_start[j] + t]`` for
    t < ``lane_len[j]``: a lane is touched when the running count of
    flagged cells over the positions grows across its span."""
    run = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(changed[cells], out=run[1:])
    return run[lane_start + lane_len] > run[lane_start]


# ---------------------------------------------------------------- maps

def oracle_update_levels(levels: np.ndarray, scans, l_free: float,
                         l_occ: float, floor: int, ceil: int) -> np.ndarray:
    """Fold scans into a level grid one scan at a time, cell by cell.

    Each scan is a list of rays, each ray a pair of (traversed (row, col)
    cells, hit cell or None) as ``ray_coords`` gives.  Per scan, the set
    of traversed cells moves by ``l_free`` in log-odds and then the set of
    hit cells by ``l_occ``, so a cell seen by several rays of one scan
    moves once per kind.  Each new level is the rounded probability,
    clamped to ``floor..ceil``; levels 0 and 100 (infinite log-odds) go
    to the nearest clamp edge.
    """
    out = levels.copy()

    def move(level: int, delta: float) -> int:
        if level == 0:
            return floor
        if level == 100:
            return ceil
        p = level / 100.0
        q = round(100.0 / (1.0 + math.exp(-(math.log(p / (1.0 - p)) + delta))))
        return min(ceil, max(floor, q))

    for scan in scans:
        free = {tuple(cell) for traversed, _ in scan for cell in traversed}
        hits = {tuple(hit) for _, hit in scan if hit is not None}
        for delta, cells in ((l_free, free), (l_occ, hits)):
            for cell in cells:
                out[cell] = move(int(out[cell]), delta)
    return out


# ---------------------------------------------------------------- paths

def oracle_bfs_distances(passable: np.ndarray,
                         start: tuple[int, int]) -> np.ndarray:
    """4-connected hop counts from ``start`` through passable cells, by a
    breadth-first queue; -1 where unreachable.  The start cell counts as
    traversable whatever the mask says."""
    height, width = passable.shape
    dist = np.full((height, width), -1, dtype=np.int32)
    dist[start] = 0
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nr < height and 0 <= nc < width
                    and dist[nr, nc] < 0 and passable[nr, nc]):
                dist[nr, nc] = dist[r, c] + 1
                queue.append((nr, nc))
    return dist


def oracle_gbl_select(values: np.ndarray, candidates: np.ndarray,
                      dist: np.ndarray, decay: float):
    """The candidate cell of highest utility ``value * exp(-decay * d)``,
    ties to the nearer one and then to the first in row-major order, by
    a scan of the candidates; None when there is none."""
    best, best_u, best_d = None, -math.inf, 0
    for r, c in np.argwhere(candidates):
        d = int(dist[r, c])
        u = float(values[r, c]) * math.exp(-decay * d)
        if u > best_u or (u == best_u and d < best_d):
            best, best_u, best_d = (int(r), int(c)), u, d
    return best


# ---------------------------------------------------------- cycle model

def oracle_sim_kernel(banks, seg_start, queues, n_banks, window, gap,
                      chain_pen, fifo_depth):
    """The accelerator's cycle loop, every core visited on every cycle.

    Takes the kernel's inputs (``archsim._flat_schedule`` outputs and the
    derived window, feedback gap and chain penalty) plus the MI FIFO depth
    and returns ``(last_issue_cycle, mi_backlog, busy, per_bank, stalls)``
    with ``stalls`` one ``[bank_conflict, feedback_wait, drain]`` row per
    core.  Each FIFO drains by one entry at the end of every cycle.
    """
    n_cores = len(queues)
    slots = range(window)
    orders = [[(r + d) % window for d in slots] for r in slots]
    pos = [[-1] * window for _ in queues]    # next cell of a context; -1 free
    seg = [[0] * window for _ in queues]     # its current segment
    end = [[0] * window for _ in queues]     # its unit's end segment
    head = [[0] * window for _ in queues]    # its heading
    ready = [[0] * window for _ in queues]   # first cycle it may issue again
    rot = [0] * n_cores
    nxt = [0] * n_cores
    busy = [0] * n_cores
    per_bank = [0] * n_banks
    mi_q = [0] * n_banks
    stalls = [[0, 0, 0] for _ in queues]
    unfinished = sum(map(len, queues))
    max_cycles = 16 * len(banks) + 1_000_000
    last_issue = -1
    t = 0
    while unfinished:
        occ = [0] * n_banks
        for i, queue in enumerate(queues):
            p, g, e, r = pos[i], seg[i], end[i], ready[i]
            # refill free contexts with rays of the heading being scanned
            k = nxt[i]
            if k < len(queue) and -1 in p:
                hd = head[i]
                heading = next((hd[d] for d in slots if p[d] >= 0), -1)
                for d in slots:
                    if k == len(queue):
                        break
                    if p[d] >= 0:
                        continue
                    h, lo, hi = queue[k]
                    trickle = heading >= 0 and h != heading
                    # starvation trickle: one next-heading ray per idle beat
                    if trickle and (window - p.count(-1) >= gap or any(
                            r[d2] <= t for d2 in slots if p[d2] >= 0)):
                        break
                    k += 1
                    p[d], g[d], e[d], hd[d], r[d] = seg_start[lo], lo, hi, h, t
                    if trickle:
                        break
                    heading = h
                nxt[i] = k
            # first ready context in rotation order whose banks are free
            blocked = -1
            for s in orders[rot[i]]:
                ps = p[s]
                if ps < 0 or r[s] > t:
                    continue
                b = banks[ps]
                if occ[b] >= 2 or mi_q[b] >= fifo_depth:
                    if blocked < 0:
                        blocked = s
                    continue
                break
            else:
                if blocked >= 0:
                    stalls[i][0] += 1
                elif p.count(-1) < window:
                    stalls[i][1] += 1
                else:
                    stalls[i][2] += 1
                continue
            occ[b] += 1
            mi_q[b] += 1
            per_bank[b] += 1
            busy[i] += 1
            last_issue = t
            r[s] = t + gap
            p[s] += 1
            if p[s] == seg_start[g[s] + 1]:
                g[s] += 1
                if g[s] < e[s]:
                    r[s] += chain_pen
                else:
                    p[s] = -1
                    unfinished -= 1
            rot[i] = blocked if blocked >= 0 else (s + 1) % window
        mi_q = [q - 1 if q else 0 for q in mi_q]
        t += 1
        if t > max_cycles:
            raise RuntimeError("simulation exceeded the cycle safety cap")
    return last_issue, max(mi_q), busy, per_bank, stalls


# ---------------------------------------------------------------- gammas

def quad_gamma_lower(s: int, x: float) -> float:
    """Lower incomplete gamma by adaptive quadrature."""
    val, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), 0.0, x,
                            limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


# ------------------------------------------------------- beam MI, direct

def brute_force_mi_map(levels: np.ndarray, ray_count: int,
                       resolution: float = 1.0,
                       lambda_cap: float = 1e7) -> np.ndarray:
    """Per-pose MI by running the recursion from scratch for every beam.

    No sweep sharing: each (pose, heading) enumerates its own beam and
    folds the cells far-end first, exactly as the one-beam definition
    reads.  Cubic in the grid edge, fine for the small grids it serves.
    """
    height, width = levels.shape
    ln_cap = math.log(lambda_cap)
    dth = 2.0 * math.pi / ray_count
    mi = np.zeros((height, width))
    for k in range(ray_count):
        ang = 2.0 * math.pi * k / ray_count
        w = resolution / max(abs(math.cos(ang)), abs(math.sin(ang)))
        for r in range(height):
            for c in range(width):
                beam = oracle_beam_cells((r, c), ang, (height, width))
                a1 = b1 = a0 = b0 = 0.0
                for cr, cc in reversed(beam):
                    o = levels[cr, cc] / 100.0
                    if o == 0.0:
                        a1, b1 = a1 + w * a0, b1 + w * b0
                        continue
                    if o == 1.0:
                        a1 = (2.0 - ln_cap) / lambda_cap
                        b1 = 1.0 / lambda_cap
                        a0 = 1.0 - ln_cap
                        b0 = 1.0
                        continue
                    lam = -math.log(1.0 - o)
                    x = lam * w
                    e = math.exp(-x)
                    g1 = 1.0 - e
                    g2 = 1.0 - e * (1.0 + x)
                    g3 = 2.0 - e * (x * x + 2.0 * x + 2.0)
                    ln_lam = math.log(lam)
                    a1, b1, a0, b0 = (
                        e * (a1 + x * b1 + w * a0 + w * x * b0)
                        + (g3 - g2 * ln_lam) / lam,
                        e * (b1 + w * b0) + g2 / lam,
                        e * (a0 + x * b0) + g2 - g1 * ln_lam,
                        e * b0 + g1,
                    )
                mi[r, c] += (a1 - (1.0 - ln_cap) * b1) * dth
    return mi


# ------------------------------------------------- 50-digit fixed point

def mp_quantize(x: "mpmath.mpf") -> int:
    """Round-to-nearest-ties-even onto the Q20.12 raw grid."""
    return int(mpmath.nint(x * Q_SCALE))


def mp_lut_entry(level: int) -> tuple[int, int, int]:
    """(lam, -log lam, 1/lam) raw words for one interior occupancy level."""
    if not 1 <= level <= 99:
        raise ValueError("interior levels only")
    o = mpmath.mpf(level) / 100
    lam = -mpmath.log(1 - o)
    return (mp_quantize(lam), mp_quantize(-mpmath.log(lam)),
            mp_quantize(1 / lam))


def mp_step(prev: tuple, o: "mpmath.mpf", w: "mpmath.mpf",
            lambda_cap: float = 1e7) -> tuple:
    """One recursion step at 50 digits (error reference for float64)."""
    a1, b1, a0, b0 = prev
    if o == 0:
        return a1 + w * a0, b1 + w * b0, a0, b0
    cap = mpmath.mpf(lambda_cap)
    if o == 1:
        ln_cap = mpmath.log(cap)
        return (2 - ln_cap) / cap, 1 / cap, 1 - ln_cap, mpmath.mpf(1)
    lam = -mpmath.log(1 - o)
    x = lam * w
    e = mpmath.exp(-x)
    g1 = 1 - e
    g2 = 1 - e * (1 + x)
    g3 = 2 - e * (x * x + 2 * x + 2)
    ln_lam = mpmath.log(lam)
    return (e * (a1 + x * b1 + w * (a0 + x * b0)) + (g3 - g2 * ln_lam) / lam,
            e * (b1 + w * b0) + g2 / lam,
            e * (a0 + x * b0) + g2 - g1 * ln_lam,
            e * b0 + g1)


# ------------------------------------------------ Q20.12 scalar datapath

Q_RAW_MIN = -(1 << 31)
Q_RAW_MAX = (1 << 31) - 1
Q_ONE = Q_SCALE
Q_TWO = 2 * Q_SCALE
# the exponential's words: log2(e) and the knots 2^(-k/32), k = 0..32, all
# with 20 fraction bits
Q_EXP_ONE = 1 << 20
Q_LOG2E = int(mpmath.nint(Q_EXP_ONE / mpmath.log(2)))
Q_EXP_KNOTS = [int(mpmath.nint(Q_EXP_ONE * mpmath.power(2, -mpmath.mpf(k) / 32)))
               for k in range(33)]


def round_half_up(a: int, d: int) -> int:
    """a / d rounded to the nearest integer, ties upward, for d > 0."""
    q, r = divmod(a, d)
    return q + (2 * r >= d)


class QChain:
    """The Q20.12 datapath as a scalar chain, one Python-int word at a time.

    Every op rounds to nearest with ties to even, then clamps to
    [Q_RAW_MIN, Q_RAW_MAX] and adds each clip to ``saturations``.  The
    occupancy LUT words ``lut[level] = (lam, -log lam, 1/lam)`` come in as
    data; the cap-derived constants are encoded here from ``lambda_cap``.
    """

    def __init__(self, lut, lambda_cap: float = 1e7):
        self.lut = [tuple(int(v) for v in entry) for entry in lut]
        self.saturations = 0
        ln_cap = math.log(lambda_cap)
        self.k1 = self.encode(1.0 - ln_cap)
        # o = 1: E = 0 erases the state; the constants are the limits of
        # (C1, C2, C3, C4) at lam = cap
        self.occupied = (0, 0, self.encode((2.0 - ln_cap) / lambda_cap),
                         self.encode(1.0 / lambda_cap), self.k1, Q_ONE)

    def clamp(self, q: int) -> int:
        if q > Q_RAW_MAX:
            self.saturations += 1
            return Q_RAW_MAX
        if q < Q_RAW_MIN:
            self.saturations += 1
            return Q_RAW_MIN
        return q

    def encode(self, x: float) -> int:
        return self.clamp(round(x * Q_SCALE))  # round() ties to even

    def add(self, a: int, b: int) -> int:
        return self.clamp(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.clamp(a - b)

    def mul(self, a: int, b: int) -> int:
        q, r = divmod(a * b, Q_SCALE)  # floor quotient, 0 <= r < Q_SCALE
        if 2 * r > Q_SCALE or (2 * r == Q_SCALE and q % 2):
            q += 1
        return self.clamp(q)

    def exp_neg(self, x: int) -> int:
        """e^-x of a word x >= 0, as 2^-n * 2^-f with n + f = x*log2(e).

        x*log2(e) is rounded to 20 fraction bits, n is its integer part
        and f its fraction.  f lies between the knots k/32 and (k+1)/32;
        2^-f is read off the line between their words, rounded to 20
        fraction bits, and 2^-n scales it to a 12-bit word.  Both steps
        round ties upward.  Past n = 40 the word is 0."""
        n, f = divmod(round_half_up(x * Q_LOG2E, Q_SCALE), Q_EXP_ONE)
        if n > 40:
            return 0
        k, r = divmod(f, Q_EXP_ONE // 32)
        left, right = Q_EXP_KNOTS[k], Q_EXP_KNOTS[k + 1]
        two_f = left - round_half_up((left - right) * r, Q_EXP_ONE // 32)
        return round_half_up(two_f, Q_EXP_ONE // Q_SCALE * 2 ** n)

    def preprocess(self, level: int, w: int) -> tuple:
        """(E, x, C1, C2, C3, C4) of an occupancy level at cell width ``w``."""
        if level == 0:
            # o = 0: lam = 0, so E = 1 and every gamma term is 0
            return (Q_ONE, 0, 0, 0, 0, 0)
        if level == 100:
            return self.occupied
        lam, neg_log_lam, inv_lam = self.lut[level]
        x = self.mul(lam, w)
        e = self.exp_neg(x)
        g1 = self.sub(Q_ONE, e)
        g2 = self.sub(Q_ONE, self.mul(e, self.add(Q_ONE, x)))
        poly = self.add(self.mul(x, x), self.add(self.add(x, x), Q_TWO))
        g3 = self.sub(Q_TWO, self.mul(e, poly))
        return (e, x,
                self.mul(inv_lam, self.add(g3, self.mul(g2, neg_log_lam))),
                self.mul(inv_lam, g2),
                self.add(g2, self.mul(g1, neg_log_lam)),
                g1)

    def step(self, prev: tuple, row: tuple, w: int) -> tuple:
        """(a1, b1, a0, b0) after one cell with preprocess ``row``."""
        e, x, c1, c2, c3, c4 = row
        a1, b1, a0, b0 = prev
        t_a1 = self.add(a1, self.mul(x, b1))
        t_a0 = self.add(a0, self.mul(x, b0))
        t_b1 = self.add(b1, self.mul(w, b0))
        return (self.add(self.mul(e, self.add(t_a1, self.mul(w, t_a0))), c1),
                self.add(self.mul(e, t_b1), c2),
                self.add(self.mul(e, t_a0), c3),
                self.add(self.mul(e, b0), c4))

    def contribution(self, state: tuple, dth: int) -> int:
        """The beam's MI word (a1 - k1*b1) * dtheta."""
        return self.mul(self.sub(state[0], self.mul(self.k1, state[1])), dth)


def q_mi_map(levels: np.ndarray, ray_count: int, resolution: float,
             chain: QChain) -> np.ndarray:
    """Q20.12 MI words of every cell by the scalar chain; afterwards
    ``chain.saturations`` has grown by the clips of the map.

    Per heading: the cell width is encoded, each level the grid holds is
    preprocessed once, and every cell's beam is stepped at its own cell
    after the beam of the next cell, whose state is known by then; so
    each (heading, cell) pair steps once.  Each cell adds its
    contributions to its word heading after heading.
    """
    height, width = levels.shape
    dth = chain.encode(2.0 * math.pi / ray_count)
    acc = np.zeros(levels.shape, dtype=np.int64)
    for k in range(ray_count):
        ang = 2.0 * math.pi * k / ray_count
        w = chain.encode(resolution / max(abs(math.cos(ang)), abs(math.sin(ang))))
        rows = {level: chain.preprocess(level, w)
                for level in sorted(set(levels.reshape(-1).tolist()))}
        beams = {(r, c): oracle_beam_cells((r, c), ang, (height, width))
                 for r in range(height) for c in range(width)}
        states = {}
        for cell in sorted(beams, key=lambda cell: len(beams[cell])):
            beam = beams[cell]
            prev = (0, 0, 0, 0)
            if len(beam) > 1:
                assert beams[beam[1]] == beam[1:]  # the rule shares suffixes
                prev = states[beam[1]]
            states[cell] = chain.step(prev, rows[int(levels[cell])], w)
            acc[cell] = chain.add(int(acc[cell]), chain.contribution(states[cell], dth))
    return acc
