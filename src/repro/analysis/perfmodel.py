"""Analytical performance estimation from generated kernel source.

Where :mod:`repro.optimizations.kernelmodel` characterizes a kernel from
the *intent* (stencil, OC, parameter setting), this module recovers the
same first-order quantities from the *emitted CUDA source alone*: a
static-analysis pass pipeline over the structural IR
(:mod:`repro.analysis.ir` / :mod:`repro.analysis.expr` /
:mod:`repro.analysis.semantics`) extracts per-kernel metrics --

- launch geometry (block/grid dims, launch count) from the host
  launcher and macros;
- the tap set (per-axis offsets of every global load) via row-major
  flat-index decomposition, giving footprints, halos and per-cache-level
  memory volumes through the same interval/footprint reasoning the
  bounds checker uses;
- warp-level coalescing classification from the affine
  ``threadIdx.x``-stride of the contiguous-axis coordinate, resolved
  through declaration chains;
- shared-memory bytes, queue depth and bank-conflict estimates from the
  ``__shared__`` declarations;
- FLOP counts from the accumulation statements;
- streaming / merge / retiming / prefetch / temporal structure from the
  loop nest and the staging intrinsics.

The metrics are composed into a roofline-style time estimate by reusing
the centralized composition in :class:`repro.gpu.simulator.GPUSimulator`
(occupancy-derived latency hiding, smooth-max phase combination, wave
quantization, streaming stalls) -- so the analytical estimate and the
measurement substrate share one timing formulation, and the estimate
needs **no profiling campaign**: source in, milliseconds out.

Nothing here inspects the generator's inputs: remove the stencil/OC
provenance comments from the source and the estimate is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from ..errors import KernelLaunchError, ReproError
from . import expr as E
from . import ir
from . import semantics as S

#: Bytes per grid cell (double precision throughout).
WORD = 8


class EstimateError(ReproError):
    """The source is outside the shape the metric extractor understands."""


# ----------------------------------------------------------------------
# extracted metrics
# ----------------------------------------------------------------------
@dataclass
class KernelMetrics:
    """Source-level facts about one generated kernel.

    Everything is derived from the translation unit text; axis 0 is the
    contiguous dimension, offsets follow ``(off_x, off_y[, off_z])``.
    """

    kernel_name: str = ""
    ndim: int = 0
    dims: tuple[int, ...] = ()  # grid extents from the N* macros
    block_dims: tuple[int, ...] = (1, 1, 1)  # hardware block shape
    threads_per_block: int = 1
    n_blocks: int = 1
    launches: int = 1
    time_steps: int = 1  # TIME_STEPS macro (sweeps per run)

    # Access structure.
    taps: tuple[tuple[int, ...], ...] = ()  # per-axis load offsets
    stores: int = 0
    extents: tuple[int, ...] = ()  # per-axis max |offset|
    coverage: tuple[int, ...] = ()  # per-axis outputs per block
    tx_stride: float = 0.0  # threadIdx.x stride in the flat index
    coalescing: float = 1.0

    # Optimization structure recovered from the loop nest.
    scheme: str = "cache"  # cache | register-stream | smem-stream | smem-tile
    stream_axis: int | None = None
    stream_tiles: int = 1
    stream_unroll: int = 1
    stream_iters: int = 0
    merge_axis: int | None = None
    merge_factor: int = 1
    merge_step: int = 0  # 1 = adjacent (BM), >1 = cyclic (CM)
    prefetch: bool = False
    retimed: bool = False
    temporal_steps: int = 1

    # Resources.
    smem_per_block: int = 0
    smem_queue_planes: int = 0
    smem_footprint: tuple[int, ...] = ()  # staged cells per axis, x first
    bank_conflict_factor: float = 1.0
    register_array_cells: int = 0
    scalar_decls: int = 0
    regs_per_thread: int = 0
    spilled_regs: int = 0

    # Work.
    flops_per_point: float = 0.0  # roofline convention (2*taps - 1)
    source_flops_per_point: float = 0.0  # literal source operation count

    # Derived per-launch volumes (filled by the volume pass).
    points: int = 0
    read_bytes_base: float = 0.0
    read_amplification: float = 1.0
    reuse_window_bytes: float = 0.0
    write_bytes: float = 0.0
    l2_bytes: float = 0.0
    smem_bytes: float = 0.0
    flops: float = 0.0
    redundancy: float = 1.0

    notes: list[str] = field(default_factory=list)

    @property
    def footprint_cells(self) -> int:
        """Cells one block touches per stream position (halo included)."""
        if self.smem_footprint:
            return math.prod(self.smem_footprint)
        cells = 1
        for a in range(self.ndim):
            if a == self.stream_axis:
                continue
            cells *= self.coverage[a] + 2 * self.extents[a]
        return cells

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "ndim": self.ndim,
            "dims": list(self.dims),
            "block_dims": list(self.block_dims),
            "threads_per_block": self.threads_per_block,
            "n_blocks": self.n_blocks,
            "launches": self.launches,
            "taps": sorted(list(t) for t in self.taps),
            "extents": list(self.extents),
            "coverage": list(self.coverage),
            "footprint_cells": self.footprint_cells,
            "tx_stride": self.tx_stride,
            "coalescing": round(self.coalescing, 4),
            "scheme": self.scheme,
            "stream_axis": self.stream_axis,
            "stream_iters": self.stream_iters,
            "merge_factor": self.merge_factor,
            "merge_axis": self.merge_axis,
            "prefetch": self.prefetch,
            "retimed": self.retimed,
            "temporal_steps": self.temporal_steps,
            "smem_per_block": self.smem_per_block,
            "smem_queue_planes": self.smem_queue_planes,
            "bank_conflict_factor": self.bank_conflict_factor,
            "regs_per_thread": self.regs_per_thread,
            "flops_per_point": self.flops_per_point,
            "source_flops_per_point": self.source_flops_per_point,
            "points": self.points,
            "read_bytes_base": self.read_bytes_base,
            "read_amplification": self.read_amplification,
            "reuse_window_bytes": self.reuse_window_bytes,
            "write_bytes": self.write_bytes,
            "l2_bytes": self.l2_bytes,
            "smem_bytes": self.smem_bytes,
            "flops": self.flops,
        }


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------
def _const_env(unit: ir.TranslationUnit, kernel: ir.Kernel) -> dict[str, float]:
    """Macros plus every kernel-local declaration that folds to a constant."""
    env = dict(unit.macros)
    for stmt, _ in ir.walk_stmts(kernel.body):
        if isinstance(stmt, ir.VarDecl) and stmt.init is not None:
            v = E.eval_const(stmt.init, env)
            if v is not None:
                env[stmt.name] = v
    return env


def _linear_coeff(node, var: str, decls, env, _seen=frozenset()):
    """Coefficient of *var* in *node*, resolving declaration chains.

    Returns ``None`` when the expression is not affine in *var*; names
    that are neither *var* nor resolvable declarations contribute 0
    (loop counters and other builtins are warp-uniform or handled by
    their own axis).
    """
    if isinstance(node, E.Num):
        return 0.0
    if isinstance(node, E.Name):
        if node.id == var:
            return 1.0
        decl = decls.get(node.id)
        if decl is not None and decl.init is not None and node.id not in _seen:
            return _linear_coeff(decl.init, var, decls, env, _seen | {node.id})
        return 0.0
    if isinstance(node, E.Unary):
        inner = _linear_coeff(node.operand, var, decls, env, _seen)
        if inner is None:
            return None
        return -inner if node.op == "-" else (0.0 if inner == 0 else None)
    if isinstance(node, E.Bin):
        lhs = _linear_coeff(node.lhs, var, decls, env, _seen)
        rhs = _linear_coeff(node.rhs, var, decls, env, _seen)
        if lhs is None or rhs is None:
            return None
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            coeff = 0.0
            if lhs:
                c = E.eval_const(node.rhs, env)
                if c is None:
                    return None
                coeff += lhs * c
            if rhs:
                c = E.eval_const(node.lhs, env)
                if c is None:
                    return None
                coeff += rhs * c
            return coeff
        if node.op in ("/", "%"):
            return 0.0 if lhs == 0 and rhs == 0 else None
        return 0.0 if lhs == 0 and rhs == 0 else None
    if isinstance(node, E.Call):
        coeffs = [_linear_coeff(a, var, decls, env, _seen) for a in node.args]
        if any(c is None for c in coeffs):
            return None
        return 0.0 if all(c == 0 for c in coeffs) else None
    return None


def _count_flops(node) -> tuple[int, int]:
    """(adds, muls) in an expression, skipping index arithmetic."""
    if isinstance(node, E.Index):
        return 0, 0  # subscript arithmetic is address, not FLOPs
    if isinstance(node, E.Bin):
        la, lm = _count_flops(node.lhs)
        ra, rm = _count_flops(node.rhs)
        return la + ra + (1 if node.op in ("+", "-") else 0), lm + rm + (
            1 if node.op == "*" else 0
        )
    if isinstance(node, E.Unary):
        return _count_flops(node.operand)
    if isinstance(node, E.Call):
        adds = muls = 0
        for a in node.args:
            x, y = _count_flops(a)
            adds, muls = adds + x, muls + y
        return adds, muls
    return 0, 0


# ----------------------------------------------------------------------
# extraction passes
# ----------------------------------------------------------------------
class MetricPass:
    """One step of the extraction pipeline; mutates the metrics record."""

    name = "metric"

    def run(self, unit: ir.TranslationUnit, kernel: ir.Kernel, m: KernelMetrics) -> None:
        raise NotImplementedError


class LaunchPass(MetricPass):
    """Grid extents, block/grid geometry and launch count."""

    name = "launch"

    def run(self, unit, kernel, m):
        m.kernel_name = kernel.name
        m.ndim = S.grid_rank(unit.macros)
        if m.ndim == 0:
            raise EstimateError("no N* grid macros: cannot size the problem")
        m.dims = tuple(int(unit.macros[S.axis_macro(a)]) for a in range(m.ndim))
        m.points = math.prod(m.dims)
        m.time_steps = int(unit.macros.get("TIME_STEPS", 1))
        if unit.host is None:
            raise EstimateError("no host launcher: launch geometry unknown")
        block = [E.eval_const(d, unit.macros) for d in unit.host.block_dims]
        grid = [E.eval_const(d, unit.macros) for d in unit.host.grid_dims]
        if any(v is None or v < 1 for v in block + grid):
            raise EstimateError("non-constant block/grid dimensions")
        m.block_dims = tuple(int(v) for v in block)
        m.threads_per_block = math.prod(m.block_dims)
        m.n_blocks = math.prod(int(v) for v in grid)
        launches = None
        if unit.host.launches is not None:
            launches = E.eval_const(unit.host.launches, unit.macros)
        m.launches = int(launches) if launches else 1
        m.stream_tiles = int(unit.macros.get("STREAM_TILES", 1))
        m.stream_unroll = int(unit.macros.get("STREAM_UNROLL", 1))
        m.temporal_steps = int(unit.macros.get("TSTEPS", 1))


class AccessPass(MetricPass):
    """Tap set, store, loop roles (stream / merge) and coverage."""

    name = "access"

    def run(self, unit, kernel, m):
        decls = kernel.declarations()
        env = _const_env(unit, kernel)
        store_coords = None
        store_ancestors = ()
        taps: set[tuple[int, ...]] = set()
        stores = 0

        for stmt, ancestors in ir.walk_stmts(kernel.body):
            if not isinstance(stmt, ir.Assign):
                continue
            for node in E.walk(stmt.value) + E.walk(stmt.target):
                if not (isinstance(node, E.Index) and isinstance(node.base, E.Name)):
                    continue
                if node.base.id not in S.GLOBAL_ARRAYS or len(node.indices) != 1:
                    continue
                coords = S.decompose_flat_index(node.indices[0], m.ndim)
                if coords is None:
                    continue  # staging access (e.g. prefetch _plane_index)
                parts = [S.coord_parts(c) for c in coords]
                if any(p is None for p in parts):
                    continue
                offsets = tuple(int(p[1]) for p in parts)
                if node.base.id == "out":
                    stores += 1
                    store_coords = [p[0] for p in parts]
                    store_ancestors = ancestors
                else:
                    taps.add(offsets)

        if store_coords is None or not taps:
            raise EstimateError(
                f"kernel {kernel.name!r} has no decomposable global accesses"
            )
        m.taps = tuple(sorted(taps))
        m.stores = stores
        m.extents = tuple(
            max(abs(t[a]) for t in m.taps) for a in range(m.ndim)
        )

        # Loop roles: a surrounding loop whose variable *is* a coordinate
        # base streams that axis; a constant-trip loop whose variable
        # feeds a coordinate declaration merges that axis.
        for loop in (s for s in store_ancestors if isinstance(s, ir.For)):
            if loop.var in store_coords:
                m.stream_axis = store_coords.index(loop.var)
                continue
            trip = self._trip_count(loop, env)
            if trip is None or trip < 2:
                continue
            for axis, base in enumerate(store_coords):
                decl = decls.get(base)
                if decl is None or decl.init is None:
                    continue
                if loop.var in E.names_in(decl.init):
                    m.merge_axis = axis
                    m.merge_factor = int(trip)
                    step = _linear_coeff(decl.init, loop.var, decls, env)
                    m.merge_step = int(step) if step else 0

        # Per-axis coverage: the blockIdx coefficient of each coordinate;
        # the stream axis is covered by the per-block tile length instead.
        coverage = []
        for axis, base in enumerate(store_coords):
            if axis == m.stream_axis:
                tile_len = env.get("tile_len")
                if tile_len is None:
                    tile_len = m.dims[axis] / max(1, m.stream_tiles)
                coverage.append(int(tile_len))
                continue
            expr = E.Name(base)
            cov = None
            for bdim in ("x", "y", "z"):
                c = _linear_coeff(expr, f"blockIdx.{bdim}", decls, env)
                if c:
                    cov = abs(c)
                    break
            if not cov:
                raise EstimateError(
                    f"coordinate {base!r} has no blockIdx coverage"
                )
            coverage.append(int(cov))
        m.coverage = tuple(coverage)

        # Streaming iteration count per launch.
        if m.stream_axis is not None:
            tile_len = m.coverage[m.stream_axis]
            m.stream_iters = math.ceil(tile_len / max(1, m.stream_unroll))

        # Warp-level coalescing: the threadIdx.x stride of the flat index.
        pitch = 1.0
        stride = 0.0
        ok = True
        for axis, base in enumerate(store_coords):
            c = _linear_coeff(E.Name(base), "threadIdx.x", decls, env)
            if c is None:
                ok = False
                break
            stride += c * pitch
            pitch *= m.dims[axis]
        m.tx_stride = stride if ok else float("nan")
        m.coalescing = self._coalescing(stride if ok else None, m.block_dims[0])

    @staticmethod
    def _trip_count(loop: ir.For, env) -> float | None:
        if loop.init is None or loop.cond is None:
            return None
        lo = E.eval_const(loop.init, env)
        if not (isinstance(loop.cond, E.Bin) and loop.cond.op == "<"):
            return None
        hi = E.eval_const(loop.cond.rhs, env)
        if lo is None or hi is None:
            return None
        return hi - lo

    @staticmethod
    def _coalescing(stride: float | None, x_threads: int, warp: int = 32) -> float:
        """Warp transaction efficiency of one global access pattern.

        ``stride`` is the address step (in elements) between adjacent
        ``threadIdx.x`` lanes: 0 broadcasts, 1 is fully coalesced, small
        strides waste a proportional sector fraction, and row-pitch
        strides (streaming along x) degrade to strided row fetches.
        ``warp`` is the scheduling width of the target device (32 for
        NVIDIA warps, 64 for AMD wavefronts): narrower-than-warp blocks
        waste proportionally more of each transaction on wider machines.
        """
        if stride is None:
            return 0.25
        stride = abs(stride)
        if stride == 0:
            return 1.0
        base = 1.0 if x_threads >= warp else max(x_threads / float(warp), 0.25)
        if stride == 1:
            eff = base
        elif stride <= 8:
            # Small strides come from adjacent merging along x (stride =
            # merge factor): each extra lane gap splits the transaction,
            # saturating at a quarter sector -- the centralized model's
            # 1/min(m, 4) merge penalty.
            eff = base / min(stride, 4.0)
        else:
            eff = 0.25
        return max(eff, 0.15)


class SchemePass(MetricPass):
    """Classify the data-movement scheme and shared-memory staging."""

    name = "scheme"

    def run(self, unit, kernel, m):
        env = _const_env(unit, kernel)
        shared = kernel.shared_arrays()
        calls = {
            s.call.func
            for s, _ in ir.walk_stmts(kernel.body)
            if isinstance(s, ir.CallStmt)
        }
        value_calls = {
            n.func
            for s, _ in ir.walk_stmts(kernel.body)
            if isinstance(s, (ir.Assign, ir.VarDecl))
            for n in E.walk(s.value if isinstance(s, ir.Assign) else (s.init or E.Num(0)))
            if isinstance(n, E.Call)
        }
        m.prefetch = "_queue_rotate" in calls or "next_plane" in kernel.declarations()
        streaming = m.stream_axis is not None

        if shared:
            total = 0
            footprint: tuple[int, ...] = ()
            planes = 0
            conflict = 1.0
            for decl in shared.values():
                dims = [E.eval_const(d, env) for d in decl.dims]
                if any(d is None or d < 1 for d in dims):
                    raise EstimateError(
                        f"shared array {decl.name!r} has non-constant dims"
                    )
                dims = [int(d) for d in dims]
                total += math.prod(dims) * ir.CTYPE_SIZE.get(decl.ctype, WORD)
                if streaming:
                    planes, stage = dims[0], dims[1:]
                elif len(dims) == m.ndim + 1:
                    planes, stage = dims[0], dims[1:]  # time double-buffer
                else:
                    planes, stage = 1, dims
                # Declarations are outermost-first; axis 0 is innermost.
                footprint = tuple(reversed(stage))
                # 8-byte words over 32 4-byte banks: a row length that is
                # a multiple of 32 words puts same-lane rows in the same
                # bank pair (no padding in the generated source).  Both
                # modeled vendors expose 32 scratchpad banks, so the
                # modulus is vendor-independent.
                if footprint and footprint[0] % 32 == 0:
                    conflict = 2.0
            m.smem_per_block = total
            m.smem_queue_planes = planes
            m.smem_footprint = footprint
            m.bank_conflict_factor = conflict
            m.scheme = "smem-stream" if streaming else "smem-tile"
        elif streaming:
            m.scheme = "register-stream"
        else:
            m.scheme = "cache"

        # Retiming: a scalar accumulator that is folded in and reset.
        folded = set()
        reset = set()
        for stmt, _ in ir.walk_stmts(kernel.body):
            if not isinstance(stmt, ir.Assign):
                continue
            if (
                stmt.op == "+="
                and isinstance(stmt.value, E.Name)
                and stmt.value.id in kernel.declarations()
            ):
                folded.add(stmt.value.id)
            if (
                stmt.op == "="
                and isinstance(stmt.target, E.Name)
                and isinstance(stmt.value, E.Num)
                and stmt.value.value == 0
            ):
                reset.add(stmt.target.id)
        m.retimed = bool(folded & reset)

        if m.temporal_steps > 1 and not (
            {"_plane_time_update", "_tile_update"} & (calls | value_calls)
        ):
            m.notes.append("TSTEPS defined but no staged time update found")

        # Register plane queue (register streaming).
        cells = 0
        scalars = 0
        for decl in kernel.declarations().values():
            if decl.shared:
                continue
            if decl.is_array:
                dims = [E.eval_const(d, env) for d in decl.dims]
                if all(d is not None for d in dims):
                    cells += int(math.prod(dims))
            elif decl.ctype in ("double", "float"):
                scalars += 1
        m.register_array_cells = cells
        m.scalar_decls = scalars


class FlopPass(MetricPass):
    """FLOPs per output point, in the roofline accounting convention.

    The generated source folds the tap coefficients into a single final
    ``COEFF`` multiply, so counting its literal operations undercounts
    the arithmetic the cost model prices.  The roofline convention --
    one multiply and one add per tap, shared with
    ``Stencil.flops_per_point`` -- is recovered from the extracted tap
    set instead; the literal source operation count is kept as
    ``source_flops_per_point`` for feature/reporting use.
    """

    name = "flops"

    def run(self, unit, kernel, m):
        adds = muls = 0
        for stmt, _ in ir.walk_stmts(kernel.body):
            if not isinstance(stmt, ir.Assign):
                continue
            a, mu = _count_flops(stmt.value)
            if stmt.op in ("+=", "-="):
                a += 1
            elif stmt.op == "*=":
                mu += 1
            adds += a
            muls += mu
        m.source_flops_per_point = float(adds + muls)
        if m.taps:
            m.flops_per_point = float(2 * len(m.taps) - 1)
        else:
            m.flops_per_point = float(adds + muls)


class RegisterPass(MetricPass):
    """Per-thread register estimate via the centralized pressure model.

    Registers are not visible in the source, so the pass feeds the
    structural facts it *can* see -- tap count, merge shape, streaming
    queue, retiming, prefetch, temporal staging -- into
    :func:`~repro.optimizations.kernelmodel.register_estimate`, the same
    formula :func:`~repro.optimizations.kernelmodel.build_profile`
    prices occupancy with.  Agreement here is what lets the analytical
    ranking separate register-hungry merge variants from cheap ones.
    """

    name = "registers"

    def run(self, unit, kernel, m):
        from ..optimizations.kernelmodel import register_estimate

        streaming = m.stream_axis is not None
        m.regs_per_thread, m.spilled_regs = register_estimate(
            max(1, len(m.taps)),
            merge_factor=m.merge_factor,
            block_merge=m.merge_step == 1,
            streaming=streaming,
            use_smem=m.scheme.startswith("smem"),
            retiming=m.retimed,
            stream_extent=m.extents[m.stream_axis] if streaming else 0,
            unroll=m.stream_unroll if streaming else 1,
            prefetch=m.prefetch,
            temporal_steps=m.temporal_steps,
        )


class VolumePass(MetricPass):
    """Per-cache-level memory volumes from footprint analysis."""

    name = "volumes"

    def run(self, unit, kernel, m):
        t = m.temporal_steps
        points = m.points
        m.write_bytes = float(WORD * points)

        axes = [a for a in range(m.ndim) if a != m.stream_axis]

        # Redundant halo work of temporal blocking, from extracted
        # extents: each fused step shrinks the valid interior.
        redundancy = 1.0
        if t > 1:
            for a in axes:
                cov = m.coverage[a]
                halo = 2 * m.extents[a] * (t - 1)
                if cov <= halo:
                    raise KernelLaunchError(
                        f"temporal halo {halo} consumes the tile "
                        f"(coverage {cov}) along axis {a}"
                    )
                redundancy *= (cov + halo) / cov
        m.redundancy = redundancy
        m.flops = points * m.flops_per_point * t * redundancy

        if m.scheme in ("smem-stream", "smem-tile"):
            # Every staged cell (tile or plane window, halo included) is
            # fetched from DRAM once per block: the halo factor is the
            # staged footprint over the block's output coverage.
            halo = 1.0
            for a, cells in zip(axes, m.smem_footprint or ()):
                halo *= cells / m.coverage[a]
            if not m.smem_footprint:
                for a in axes:
                    halo *= (m.coverage[a] + 2 * m.extents[a] * t) / m.coverage[a]
            m.read_bytes_base = WORD * points * halo
            m.read_amplification = 1.0
            m.reuse_window_bytes = 0.0
            l2 = m.read_bytes_base

            # Bank conflicts throttle achievable smem bandwidth rather
            # than adding traffic, so ``bank_conflict_factor`` stays a
            # reported metric and does not scale the volume.
            from ..optimizations.kernelmodel import smem_traffic_taps

            m.smem_bytes = (
                smem_traffic_taps(
                    m.taps,
                    stream_axis=m.stream_axis,
                    retiming=m.retimed,
                    block_merge=m.merge_step == 1,
                    merge_axis=m.merge_axis,
                    merge_factor=m.merge_factor,
                )
                * WORD
                * points
                * t
                * redundancy
            )
        else:
            # Cache-served: stream-axis reuse (if any) is perfect, the
            # remaining axes ride the L2.  Worst case re-fetches every
            # outer-axis visit; the reuse window says when that happens.
            m.read_bytes_base = float(WORD * points)
            if not axes:
                m.read_amplification = 1.0
                m.reuse_window_bytes = 0.0
            else:
                outer = axes[-1]
                m.read_amplification = (
                    1.0 + 2.0 * m.extents[outer] if len(axes) > 1 else 1.0
                )
                inner = math.prod(m.dims[a] for a in axes[:-1])
                m.reuse_window_bytes = (2 * m.extents[outer] + 1) * inner * WORD
            l2 = WORD * points * _row_accesses(
                m.taps, tuple(axes), m.merge_factor, m.merge_axis
            )
            m.smem_bytes = 0.0

        if m.spilled_regs:
            spill = m.spilled_regs * WORD * 2 * 0.25 * points * t
            l2 += spill
            m.read_bytes_base += 0.3 * spill
        m.l2_bytes = max(l2, m.read_bytes_base) + m.write_bytes


def _row_accesses(taps, axes: tuple[int, ...], merge: int, merge_axis) -> float:
    """Distinct offset rows per point: the SM <-> L2 transaction factor."""
    outer = [a for a in axes if a != 0]
    if not outer:
        return 1.0
    rows = {tuple(p[a] for a in outer) for p in taps}
    n_rows = float(len(rows))
    if merge > 1 and merge_axis in outer:
        n_rows = 1.0 + (n_rows - 1.0) / merge
    return n_rows


#: The extraction pipeline, in dependency order.
METRIC_PASSES: tuple[MetricPass, ...] = (
    LaunchPass(),
    AccessPass(),
    SchemePass(),
    FlopPass(),
    RegisterPass(),
    VolumePass(),
)


def extract_metrics(source: "str | ir.TranslationUnit") -> KernelMetrics:
    """Run the metric-extraction pipeline over one translation unit."""
    if isinstance(source, ir.TranslationUnit):
        unit = source
    else:
        from .framework import parse_unit_cached

        unit = parse_unit_cached(source)
    if not unit.kernels:
        raise EstimateError("translation unit has no __global__ kernel")
    kernel = unit.kernel
    metrics = KernelMetrics()
    for pipeline_pass in METRIC_PASSES:
        pipeline_pass.run(unit, kernel, metrics)
    return metrics


# ----------------------------------------------------------------------
# roofline composition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerfEstimate:
    """Analytical timing for one kernel on one GPU (per time step)."""

    gpu: str
    time_ms: float
    dram_ms: float
    l2_ms: float
    smem_ms: float
    compute_ms: float
    stream_ms: float
    launch_ms: float
    occupancy: float
    utilization: float
    metrics: KernelMetrics

    def to_dict(self) -> dict:
        return {
            "gpu": self.gpu,
            "time_ms": self.time_ms,
            "phases_ms": {
                "dram": self.dram_ms,
                "l2": self.l2_ms,
                "smem": self.smem_ms,
                "compute": self.compute_ms,
                "stream": self.stream_ms,
                "launch": self.launch_ms,
            },
            "occupancy": round(self.occupancy, 4),
            "utilization": round(self.utilization, 4),
        }


def _to_profile(m: KernelMetrics):
    """Package extracted metrics as a simulator-compatible profile."""
    from ..optimizations.kernelmodel import KernelProfile

    return KernelProfile(
        threads_per_block=m.threads_per_block,
        n_blocks=m.n_blocks,
        launches=m.launches,
        regs_per_thread=m.regs_per_thread,
        spilled_regs=m.spilled_regs,
        smem_per_block=m.smem_per_block,
        flops=m.flops,
        read_bytes_base=m.read_bytes_base,
        read_amplification=m.read_amplification,
        reuse_window_bytes=m.reuse_window_bytes,
        write_bytes=m.write_bytes,
        l2_bytes=m.l2_bytes,
        smem_bytes=m.smem_bytes,
        coalescing=m.coalescing,
        scattered=m.scheme in ("cache", "register-stream"),
        stream_iters=m.stream_iters,
        prefetch=m.prefetch,
        temporal_steps=m.temporal_steps,
        points=m.points,
    )


def _compose(metrics: KernelMetrics, gpu: str) -> PerfEstimate:
    """Time extracted metrics on one GPU via the centralized roofline.

    The simulator normalizes per-step time by its own ``TIME_STEPS``
    constant; the source carries the macro, so re-scale when they
    differ (they agree for all generator output).
    """
    from dataclasses import replace as _replace

    from ..gpu.simulator import GPUSimulator
    from ..gpu.specs import get_gpu
    from ..optimizations.kernelmodel import TIME_STEPS

    spec = get_gpu(gpu)
    sim = GPUSimulator(spec, sigma=0.0)
    profile = _to_profile(metrics)
    if spec.warp_size != 32:
        # The extracted coalescing factor was classified at the default
        # 32-lane width; re-derive it for this device's scheduling width
        # from the recorded threadIdx.x stride (matches build_profile's
        # warp_size-parameterized clause on generator output).
        stride = metrics.tx_stride if math.isfinite(metrics.tx_stride) else None
        profile = _replace(
            profile,
            coalescing=AccessPass._coalescing(
                stride, metrics.block_dims[0], warp=spec.warp_size
            ),
        )
    result = sim.time_profile(profile)
    scale = TIME_STEPS / max(1, metrics.time_steps)
    smem_s = 0.0
    if metrics.smem_bytes:
        smem_bw = (
            spec.sms * spec.smem_bytes_per_clk * spec.boost_clock_mhz * 1e6 * 0.35
        )
        smem_s = metrics.smem_bytes / smem_bw
    return PerfEstimate(
        gpu=spec.name,
        time_ms=result.time_ms * scale,
        dram_ms=result.dram_ms,
        l2_ms=result.l2_ms,
        smem_ms=smem_s * 1e3,
        compute_ms=result.compute_ms,
        stream_ms=result.stream_ms,
        launch_ms=result.launch_ms,
        occupancy=result.occupancy.occupancy,
        utilization=result.utilization,
        metrics=metrics,
    )


def estimate_source(source: "str | ir.TranslationUnit", gpu: str) -> PerfEstimate:
    """Roofline time estimate for generated source on one GPU.

    Composes the extracted metrics with the centralized occupancy /
    latency-hiding / phase model.  Raises
    :class:`~repro.errors.KernelLaunchError` when the configuration
    cannot launch on *gpu* and :class:`EstimateError` when the source is
    outside the extractable subset.
    """
    return _compose(extract_metrics(source), gpu)


@lru_cache(maxsize=65536)
def _metrics_for(stencil, oc, setting, grid) -> KernelMetrics:
    from ..codegen import generate_cuda

    return extract_metrics(generate_cuda(stencil, oc, setting, grid=grid))


def estimate_kernel(
    stencil,
    oc,
    setting,
    gpu: str,
    grid: tuple[int, ...] | None = None,
) -> PerfEstimate:
    """Generate the kernel for (stencil, OC, setting) and estimate it.

    The generate + parse + extract work is memoized per configuration;
    only the (cheap) per-GPU composition runs on repeat calls.
    """
    return _compose(_metrics_for(stencil, oc, setting, grid), gpu)


# ----------------------------------------------------------------------
# feature extraction for the hybrid predictor
# ----------------------------------------------------------------------
ANALYTICAL_FEATURE_NAMES: tuple[str, ...] = (
    "ana_log_time_ms",
    "ana_log_dram_ms",
    "ana_log_l2_ms",
    "ana_log_smem_ms",
    "ana_log_compute_ms",
    "ana_log_stream_ms",
    "ana_occupancy",
    "ana_utilization",
    "ana_coalescing",
    "ana_log_read_bytes",
    "ana_log_smem_bytes",
    "ana_log_flops",
    "ana_crashed",
)


def analytical_features(stencil, oc, setting, gpu: str) -> list[float]:
    """Fixed-width analytical feature vector for hybrid models.

    Configurations the analytical model rejects (launch-infeasible or
    outside the extractable subset) get a zero vector with the crash
    flag set, so downstream models see failure as a feature rather than
    an exception.
    """

    def _log(v: float) -> float:
        return math.log2(1.0 + max(0.0, v))

    from ..errors import OptimizationError

    try:
        est = estimate_kernel(stencil, oc, setting, gpu)
    except (KernelLaunchError, OptimizationError, EstimateError, ir.ParseError):
        return [0.0] * (len(ANALYTICAL_FEATURE_NAMES) - 1) + [1.0]
    m = est.metrics
    return [
        _log(est.time_ms),
        _log(est.dram_ms),
        _log(est.l2_ms),
        _log(est.smem_ms),
        _log(est.compute_ms),
        _log(est.stream_ms),
        est.occupancy,
        est.utilization,
        m.coalescing,
        _log(m.read_bytes_base),
        _log(m.smem_bytes),
        _log(m.flops),
    ] + [0.0]
