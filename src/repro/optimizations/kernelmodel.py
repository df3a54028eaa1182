"""Analytical kernel characterization for (stencil, OC, parameter setting).

This module is the bridge between the optimization layer and the GPU
simulator: it derives, for one kernel variant, the quantities a timing model
needs -- launch geometry, per-thread registers, per-block shared memory,
DRAM and L2 traffic, floating-point work, coalescing efficiency and
streaming synchronization structure.

The model captures the first-order mechanics of each optimization:

Streaming (ST)
    Blocks become (d-1)-dimensional tiles swept along the stream axis; each
    input plane is loaded once, removing the stream-axis redundancy.
    Concurrent streaming (``stream_tiles``) splits the stream axis to
    restore block-level parallelism; ``stream_unroll`` adds register-level
    reuse at register cost.  A per-plane ``__syncthreads()`` exposes memory
    latency, modeled as a per-iteration stall.
Block merging (BM) / cyclic merging (CM)
    A thread computes ``merge_factor`` outputs.  BM merges *adjacent*
    points, so neighbor loads overlap and are reused from registers, but
    merging along the contiguous axis breaks coalescing.  CM merges
    *strided* points: coalescing is preserved for any merge axis and the
    register cost is lower, but there is no load overlap to harvest.
Retiming (RT)
    Decomposes the stencil into accumulating sub-computations along the
    stream axis, shrinking the live register queue (a win for high-order
    stencils, a small constant loss for low-order ones).
Prefetching (PR)
    Double-buffers the next plane into registers, hiding most of the
    per-iteration synchronization stall at a register cost.
Temporal blocking (TB)
    Fuses ``temporal_steps`` sweeps per launch: DRAM traffic divides by the
    fuse degree while halos grow by ``extent x (t-1)`` per blocked axis,
    adding redundant compute and loads.  Staging the time planes requires
    shared memory, so TB kernels always allocate it -- which is exactly why
    temporal blocking crashes for 3-D order-4 stencils without streaming
    (Section III-A): the widened 3-D tile exceeds the per-block shared
    memory limit on every evaluated GPU.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, update_wrapper

from ..config import GRID_2D, GRID_3D
from ..errors import KernelLaunchError, OptimizationError
from ..stencil.stencil import Stencil
from .combos import OC
from .params import ParamSetting
from .passes import Opt

#: Number of time steps a profiling run sweeps (execution time is reported
#: per step).  Must be divisible by every temporal fuse degree.
TIME_STEPS = 8

#: Bytes per grid cell (double precision throughout the paper).
WORD = 8


def default_grid(ndim: int) -> tuple[int, ...]:
    """The paper's input grids: 8192^2 for 2-D, 512^3 for 3-D."""
    return (GRID_2D,) * 2 if ndim == 2 else (GRID_3D,) * 3


def register_queue_planes(stencil: Stencil, oc: OC, setting: ParamSetting) -> int:
    """Stream-axis planes the reuse queue must hold (register streaming).

    This is the **contract** with the code generator: the emitted register
    queue (or the reuse portion of the shared plane buffer) must hold
    exactly this many planes.  Plain streaming keeps the full stencil
    footprint ``2*extent + 1``; retiming accumulates partial sums so only
    the leading ``extent + 1`` planes (at least a rolling pair) stay live.
    """
    stream_axis = setting["stream_dim"] - 1
    es = stencil.axis_extents[stream_axis]
    planes = 2 * es + 1
    if Opt.RT in oc.opts:
        planes = max(2, es + 1)
    return planes


def smem_plane_count(stencil: Stencil, oc: OC, setting: ParamSetting) -> int:
    """Planes of the shared-memory queue of a streaming smem kernel.

    Also part of the codegen contract: the reuse queue
    (:func:`register_queue_planes`) plus one prefetch landing plane (PR)
    plus two staging planes per fused time step beyond the first (TB).
    """
    planes = register_queue_planes(stencil, oc, setting)
    if Opt.PR in oc.opts:
        planes += 1
    if Opt.TB in oc.opts:
        planes += 2 * (setting["temporal_steps"] - 1)
    return planes


@dataclass(frozen=True, slots=True)
class KernelProfile:
    """Everything the timing simulator needs to know about one kernel.

    Traffic and FLOP counts are totals *per launch*; ``launches`` says how
    many launches cover :data:`TIME_STEPS` sweeps.  Axis 0 of the grid is
    the innermost (contiguous) dimension.
    """

    # Launch geometry.
    threads_per_block: int
    n_blocks: int
    launches: int

    # Per-thread / per-block resources.
    regs_per_thread: int
    spilled_regs: int
    smem_per_block: int

    # Work and traffic per launch.  DRAM reads depend on the GPU's L2
    # capacity for cache-served schemes, so they are carried as a base
    # (perfect-reuse) volume plus a worst-case amplification and the L2
    # window needed to avoid it; the simulator combines them.
    flops: float
    read_bytes_base: float
    read_amplification: float
    reuse_window_bytes: float
    write_bytes: float
    l2_bytes: float
    smem_bytes: float

    # Memory behaviour.
    coalescing: float  # in (0, 1]
    scattered: bool  # cache-served scheme: many concurrent row streams

    # Streaming synchronization structure (zeros when not streaming).
    stream_iters: int
    prefetch: bool

    # Bookkeeping for reports.
    temporal_steps: int
    points: int


#: ``build_profile.cache_info()``: ``lru_cache``'s fields plus the
#: number of stencils currently holding entries.
MemoInfo = namedtuple("MemoInfo", "hits misses maxsize currsize stencils")


#: Stencils whose buckets the :func:`build_profile` memo keeps.
_MEMO_STENCILS = 32
#: Hard cap on the memo's total entry count (``lru_cache``'s old size).
_MEMO_ENTRIES = 262144


class _Failure:
    """A memoized deterministic failure: re-raised as a fresh exception."""

    __slots__ = ("cls", "args")

    def __init__(self, error: Exception):
        self.cls, self.args = type(error), error.args

    def exception(self) -> Exception:
        return self.cls(*self.args)


class StencilScopedMemo:
    """The memo behind :func:`build_profile`, bucketed per stencil.

    Each bucket is keyed by the :class:`Stencil` exactly as
    ``functools.lru_cache`` would key it (stencil equality: dimension and
    offsets) and maps ``(oc, setting tuple, grid, warp_size)`` to the
    profile.  :class:`ParamSetting` hashes and compares by its layout
    tuple, so keying by the tuple changes no lookup, and the memo does
    not keep the caller's setting object alive.

    Only the :data:`_MEMO_STENCILS` most recently used stencils keep
    their buckets, and :data:`_MEMO_ENTRIES` caps the total entry count;
    eviction drops whole least-recently-used buckets.  A campaign works through
    stencils one at a time, so this keeps the memo (and the process's
    memory) bounded however long the campaign runs, while a repeated
    campaign over a few dozen stencils replays entirely from it.

    Deterministic failures (:class:`KernelLaunchError`,
    :class:`OptimizationError`) are memoized too and re-raised as fresh
    exceptions of the same type and message; anything else propagates
    unmemoized.
    """

    def __init__(self, fn):
        update_wrapper(self, fn)
        self._fn = fn
        self._buckets: "OrderedDict[Stencil, dict]" = OrderedDict()
        self._size = 0
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def __call__(
        self,
        stencil: Stencil,
        oc: OC,
        setting: ParamSetting,
        grid: "tuple[int, ...] | None" = None,
        warp_size: int = 32,
    ) -> "KernelProfile":
        key = (oc, setting.as_tuple(), grid, warp_size)
        with self._lock:
            bucket = self._buckets.get(stencil)
            if bucket is not None:
                self._buckets.move_to_end(stencil)
                value = bucket.get(key)
                if value is not None:
                    self._hits += 1
                    if value.__class__ is _Failure:
                        raise value.exception()
                    return value
            self._misses += 1
        try:
            value = self._fn(stencil, oc, setting, grid, warp_size)
        except (KernelLaunchError, OptimizationError) as e:
            self._store(stencil, key, _Failure(e))
            raise
        self._store(stencil, key, value)
        return value

    def _store(self, stencil: Stencil, key: tuple, value) -> None:
        with self._lock:
            bucket = self._buckets.get(stencil)
            if bucket is None:
                bucket = self._buckets[stencil] = {}
            else:
                self._buckets.move_to_end(stencil)
            if key not in bucket:
                bucket[key] = value
                self._size += 1
            while (
                len(self._buckets) > _MEMO_STENCILS
                or self._size > _MEMO_ENTRIES
            ):
                _, old = self._buckets.popitem(last=False)
                self._size -= len(old)

    def cache_info(self) -> MemoInfo:
        with self._lock:
            return MemoInfo(
                self._hits, self._misses, _MEMO_ENTRIES, self._size,
                len(self._buckets),
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._size = self._hits = self._misses = 0


@StencilScopedMemo
def build_profile(
    stencil: Stencil,
    oc: OC,
    setting: ParamSetting,
    grid: tuple[int, ...] | None = None,
    warp_size: int = 32,
) -> KernelProfile:
    """Characterise the kernel implementing *stencil* under *oc*/*setting*.

    Profiles are GPU-*model*-independent given the scheduling width, so
    results are memoized: a multi-GPU profiling campaign re-times the
    same (stencil, OC, setting) triples on each architecture and pays
    the characterization cost once per ``warp_size`` (32 for every
    NVIDIA device, 64 for AMD wavefronts -- the width only affects the
    coalescing estimate).  The memo is stencil-scoped (see
    :class:`StencilScopedMemo`): it keeps the 32 most recently used
    stencils' entries.

    Raises
    ------
    OptimizationError
        For geometry that cannot be expressed (e.g. a merge/stream
        dimension beyond the grid's rank).  Hardware-limit violations are
        *not* checked here; the simulator owns those (they depend on the
        GPU).
    """
    ndim = stencil.ndim
    dims = default_grid(ndim) if grid is None else tuple(grid)
    if len(dims) != ndim:
        raise OptimizationError(f"grid rank {len(dims)} != stencil ndim {ndim}")

    extents = stencil.axis_extents
    nnz = stencil.nnz

    streaming = Opt.ST in oc.opts
    merging = Opt.BM in oc.opts or Opt.CM in oc.opts
    block_merge = Opt.BM in oc.opts
    retiming = Opt.RT in oc.opts
    prefetch = Opt.PR in oc.opts
    temporal = Opt.TB in oc.opts

    t = setting["temporal_steps"] if temporal else 1
    if TIME_STEPS % t:
        raise OptimizationError(f"temporal_steps={t} does not divide {TIME_STEPS}")
    launches = TIME_STEPS // t

    m = setting["merge_factor"] if merging else 1
    merge_axis = setting["merge_dim"] - 1 if merging else -1
    if merging and merge_axis >= ndim:
        raise OptimizationError(f"merge_dim={setting['merge_dim']} on {ndim}-D grid")

    stream_axis = setting["stream_dim"] - 1 if streaming else -1
    if streaming and stream_axis >= ndim:
        raise OptimizationError(f"stream_dim={setting['stream_dim']} on {ndim}-D grid")

    # Merging along the stream axis cannot be expressed: the stream loop
    # already walks that axis, so codegen emits a plain streaming kernel
    # (see ``CudaEmitter._merge_loop``).  Price what is actually emitted.
    if merging and streaming and merge_axis == stream_axis:
        merging = False
        block_merge = False
        m = 1
        merge_axis = -1

    # TB kernels stage time planes in shared memory regardless of the
    # use_smem parameter (see module docstring).
    use_smem = bool(setting["use_smem"]) or temporal

    # ------------------------------------------------------------------
    # launch geometry: per-axis thread coverage c[i] and block dims
    # ------------------------------------------------------------------
    if streaming:
        plane_axes = [a for a in range(ndim) if a != stream_axis]
        block_dims = [1] * ndim
        block_dims[plane_axes[0]] = setting["block_x"]
        if len(plane_axes) > 1:
            block_dims[plane_axes[1]] = setting["block_y"]
    else:
        block_dims = [setting["block_x"], setting["block_y"], setting["block_z"]][
            :ndim
        ]
        block_dims += [1] * (ndim - len(block_dims))

    threads_per_block = math.prod(block_dims)

    # Cyclic merging strides the merged outputs by the block extent; a
    # unit block dimension degenerates the stride to 1, which is exactly
    # adjacent (block) merging -- price the register/overlap structure
    # the emitted kernel actually has.
    if merging and not block_merge and block_dims[merge_axis] == 1:
        block_merge = True

    coverage = list(block_dims)
    if merging and merge_axis != stream_axis:
        coverage[merge_axis] *= m

    n_blocks = 1
    for a in range(ndim):
        if a == stream_axis:
            continue
        n_blocks *= math.ceil(dims[a] / coverage[a])
    if streaming:
        n_blocks *= setting["stream_tiles"]

    points = math.prod(dims)

    # Temporal blocking shrinks the valid interior of a tile by the stencil
    # extent per fused step (trapezoidal halo); a tile whose halo consumes
    # it computes nothing, so such configurations cannot run.  This is why
    # temporal blocking without streaming fails for high-order 3-D stencils
    # (Section III-A): no in-range block shape keeps all three axes wider
    # than their temporal halos.
    if temporal and t > 1:
        for a in range(ndim):
            if a == stream_axis:
                continue
            halo = 2 * extents[a] * (t - 1)
            if coverage[a] <= halo:
                raise KernelLaunchError(
                    f"temporal halo {halo} consumes the tile "
                    f"(coverage {coverage[a]}) along axis {a}"
                )

    # ------------------------------------------------------------------
    # registers per thread
    # ------------------------------------------------------------------
    regs_per_thread, spilled = register_estimate(
        nnz,
        merge_factor=m if merging else 1,
        block_merge=block_merge,
        streaming=streaming,
        use_smem=use_smem,
        retiming=retiming,
        stream_extent=extents[stream_axis] if streaming else 0,
        unroll=setting["stream_unroll"] if streaming else 1,
        prefetch=prefetch,
        temporal_steps=t,
        temporal=temporal,
    )

    # ------------------------------------------------------------------
    # shared memory per block
    # ------------------------------------------------------------------
    smem = 0
    if use_smem:
        if streaming:
            plane_cells = 1
            for a in range(ndim):
                if a == stream_axis:
                    continue
                plane_cells *= coverage[a] + 2 * extents[a] * t
            smem = plane_cells * smem_plane_count(stencil, oc, setting) * WORD
        else:
            tile_cells = 1
            for a in range(ndim):
                tile_cells *= coverage[a] + 2 * extents[a] * t
            smem = tile_cells * WORD * (2 if temporal else 1)

    # ------------------------------------------------------------------
    # floating-point work per launch
    # ------------------------------------------------------------------
    flops_per_point = float(stencil.flops_per_point())
    redundancy = 1.0
    if temporal:
        for a in range(ndim):
            if a == stream_axis:
                continue
            redundancy *= (coverage[a] + 2 * extents[a] * (t - 1)) / coverage[a]
    flops = points * flops_per_point * t * redundancy

    # ------------------------------------------------------------------
    # memory traffic per launch
    # ------------------------------------------------------------------
    write_bytes = float(WORD * points)  # final time plane of the fused group

    if use_smem:
        halo = 1.0
        for a in range(ndim):
            if a == stream_axis:
                continue
            halo *= (coverage[a] + 2 * extents[a] * t) / coverage[a]
        read_base = WORD * points * halo
        read_amp = 1.0
        window = 0.0
        l2_read = read_base
    elif streaming:
        # Register streaming: stream-axis reuse is perfect; in-plane reuse
        # rides the cache like the naive scheme restricted to plane axes.
        plane_axes = [a for a in range(ndim) if a != stream_axis]
        read_base = float(WORD * points)
        read_amp = _worst_case_amplification(stencil, plane_axes)
        window = reuse_window_bytes(stencil, dims, stream_axis)
        l2_read = WORD * points * _row_accesses(stencil, tuple(plane_axes), m, merge_axis)
    else:
        axes = list(range(ndim))
        read_base = float(WORD * points)
        read_amp = _worst_case_amplification(stencil, axes)
        window = reuse_window_bytes(stencil, dims, None)
        l2_read = WORD * points * _row_accesses(stencil, tuple(axes), m, merge_axis)

    # Shared-memory traffic: tiled kernels re-read each accessed neighbor
    # from shared memory, so dense (high-nnz) stencils become
    # smem-bandwidth-bound -- the reason AN5D-style frameworks work to
    # reduce shared memory usage for high-order stencils.  Retiming
    # accumulates partial sums in registers so each staged plane value is
    # read once per stream-axis position instead of once per tap; block
    # merging reuses overlapping taps across the merged outputs.
    smem_bytes = 0.0
    if use_smem:
        taps = smem_traffic_taps(
            stencil.offsets,
            stream_axis=stream_axis if streaming else None,
            retiming=retiming,
            block_merge=block_merge,
            merge_axis=merge_axis,
            merge_factor=m,
        )
        smem_bytes = taps * WORD * points * t * redundancy

    # Register spills round-trip through L1/L2 (and partly DRAM).
    if spilled:
        spill_traffic = spilled * WORD * 2 * 0.25 * points * t
        l2_read += spill_traffic
        read_base += 0.3 * spill_traffic

    l2_bytes = max(l2_read, read_base) + write_bytes

    # ------------------------------------------------------------------
    # coalescing efficiency
    # ------------------------------------------------------------------
    if streaming and stream_axis == 0:
        # Threads cover (y[,z]) while x is swept: every warp access is a
        # strided row fetch and only a quarter of each sector is used.
        coalesce = 0.25
    else:
        x_threads = block_dims[0]
        coalesce = (
            1.0
            if x_threads >= warp_size
            else max(x_threads / float(warp_size), 0.25)
        )
    if block_merge and merge_axis == 0:
        coalesce *= 1.0 / min(m, 4)
    coalesce = max(coalesce, 0.15)

    # ------------------------------------------------------------------
    # streaming synchronization structure
    # ------------------------------------------------------------------
    stream_iters = 0
    if streaming:
        tile_len = math.ceil(dims[stream_axis] / setting["stream_tiles"])
        stream_iters = math.ceil(tile_len / setting["stream_unroll"])

    return KernelProfile(
        threads_per_block=threads_per_block,
        n_blocks=n_blocks,
        launches=launches,
        regs_per_thread=regs_per_thread,
        spilled_regs=spilled,
        smem_per_block=int(smem),
        flops=flops,
        read_bytes_base=read_base,
        read_amplification=read_amp,
        reuse_window_bytes=window,
        write_bytes=write_bytes,
        l2_bytes=l2_bytes,
        smem_bytes=smem_bytes,
        coalescing=coalesce,
        scattered=not use_smem,
        stream_iters=stream_iters,
        prefetch=prefetch,
        temporal_steps=t,
        points=points,
    )


def register_estimate(
    nnz: int,
    *,
    merge_factor: int = 1,
    block_merge: bool = False,
    streaming: bool = False,
    use_smem: bool = False,
    retiming: bool = False,
    stream_extent: int = 0,
    unroll: int = 1,
    prefetch: bool = False,
    temporal_steps: int = 1,
    temporal: "bool | None" = None,
) -> "tuple[int, int]":
    """Per-thread register pressure from the kernel's *structure* alone.

    Returns ``(regs_per_thread, spilled)`` with the per-thread count
    capped at the hardware's 255.  This is the single register model of
    the repo: :func:`build_profile` calls it with intent-derived
    arguments, and the static analyzer's register pass calls it with the
    same facts recovered from generated source, so both sides price
    occupancy identically.
    """
    regs = 24.0 + 3.0 * math.sqrt(nnz)
    if merge_factor > 1:
        per_point = 5.0 + 1.1 * math.sqrt(nnz)
        regs += (merge_factor - 1) * per_point * (1.1 if block_merge else 0.85)
    if streaming:
        queue = (2 * stream_extent + 1) * unroll * 2.2
        if use_smem:
            queue *= 0.35
        if retiming:
            queue *= 0.45
            regs += 6.0
        regs += queue * (1.0 if use_smem else 1.6)
        regs += (unroll - 1) * 5.0
        if prefetch:
            regs += 8.0 * unroll + 6.0
    if temporal is None:
        temporal = temporal_steps > 1
    if temporal:
        if streaming:
            regs += 10.0 * temporal_steps
        else:
            regs *= 1.0 + 0.4 * (temporal_steps - 1)

    regs_needed = int(round(regs))
    return min(regs_needed, 255), max(0, regs_needed - 255)


def smem_traffic_taps(
    taps: "tuple[tuple[int, ...], ...]",
    *,
    stream_axis: "int | None" = None,
    retiming: bool = False,
    block_merge: bool = False,
    merge_axis: "int | None" = None,
    merge_factor: int = 1,
) -> float:
    """Shared-memory reads per output point for a tiled kernel.

    Tiled kernels re-read each accessed neighbor from shared memory
    (plus ~2 accesses for the store/rotate bookkeeping), so dense
    stencils become smem-bandwidth-bound.  Retiming accumulates
    stream-axis taps in registers, leaving only the in-plane taps plus
    the rolling update; block merging serves overlapping taps of the
    merged outputs from registers.  Shared between :func:`build_profile`
    (stencil offsets) and the analyzer's volume pass (extracted taps).
    """
    eff = float(len(taps))
    if retiming and stream_axis is not None:
        off_stream = sum(1 for p in taps if p[stream_axis] == 0)
        eff = float(off_stream) + 2.0
    if block_merge and merge_axis is not None and merge_factor > 1:
        eff /= tap_overlap_factor(tuple(taps), merge_axis, merge_factor)
    return eff + 2.0


@lru_cache(maxsize=65536)
def tap_overlap_factor(
    taps: "tuple[tuple[int, ...], ...]", axis: int, m: int
) -> float:
    """Tap-reuse factor of block merging *m* outputs along *axis*.

    Adjacent outputs share exactly the taps whose translates along the
    merge axis are also taps, so the per-output tap count of the merged
    thread is ``|union of m shifted tap sets| / m``.  Dense-along-axis
    stencils (boxes) overlap heavily and love BM; stencils sparse along
    the axis gain nothing (and then cyclic merging's lower register cost
    wins instead).
    """
    union: set = set()
    for k in range(m):
        union.update(tuple(c + k if d == axis else c for d, c in enumerate(p)) for p in taps)
    return m * len(taps) / len(union)


def _bm_overlap_factor(stencil: Stencil, axis: int, m: int) -> float:
    return tap_overlap_factor(stencil.offsets, axis, m)


@lru_cache(maxsize=65536)
def _row_accesses(
    stencil: Stencil, axes: tuple[int, ...], merge: int, merge_axis: int
) -> float:
    """SM <-> L2 traffic multiplier: distinct offset rows touched per point.

    Accesses that differ only along the contiguous axis coalesce into the
    same cache lines, so the L2 transaction count per point is the number
    of unique offset projections onto the remaining axes.  Block merging
    along a non-contiguous axis overlaps adjacent points' rows and serves
    the repeats from registers.
    """
    outer = [a for a in axes if a != 0]
    if not outer:
        return 1.0
    rows = {tuple(p[a] for a in outer) for p in stencil.offsets}
    n_rows = float(len(rows))
    if merge > 1 and merge_axis in outer:
        # Adjacent merged points share all but ~2*extent of their rows.
        n_rows = 1.0 + (n_rows - 1.0) / merge
    return n_rows


def _worst_case_amplification(stencil: Stencil, axes: list[int]) -> float:
    """DRAM read amplification for cache-served schemes with a cold L2.

    Reuse along the outermost axis requires the L2 to hold a window of
    ``2*extent + 1`` inner slabs; when it cannot, each of the extra slab
    visits becomes a re-fetch.  The simulator interpolates between 1 and
    this value using the actual L2 capacity against
    :func:`reuse_window_bytes`.
    """
    if len(axes) == 1:
        return 1.0
    outer_axis = axes[-1]
    return 1.0 + 2.0 * stencil.axis_extents[outer_axis]


def reuse_window_bytes(
    stencil: Stencil, dims: tuple[int, ...], streaming_axis: int | None
) -> float:
    """Bytes the L2 must hold to serve outer-axis reuse for cache schemes.

    For the naive scheme on a 3-D grid this is ``(2*ez + 1)`` full planes;
    with streaming along ``z`` the relevant window drops to ``(2*ey + 1)``
    rows of the 2-D plane, and so on.
    """
    ndim = stencil.ndim
    axes = [a for a in range(ndim) if a != streaming_axis]
    outer_axis = axes[-1]
    inner = 1.0
    for a in axes[:-1]:
        inner *= dims[a]
    return (2 * stencil.axis_extents[outer_axis] + 1) * inner * WORD
