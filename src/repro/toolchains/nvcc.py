"""The nvcc 12.3 device-compiler model.

The device compiler consumes the CUDA translation of the candidate program
(§2.4: ``compute`` as a ``__global__`` kernel, single block/thread); the
lowered kernel IR is identical, so this model compiles the same unit with
device semantics:

* links the CUDA Math Library (:func:`~repro.fp.mathlib.CudaLibm`), whose
  faithful-rounding outcomes differ from glibc's — the dominant host-device
  inconsistency source at every level (paper RQ3);
* contracts FMA at **every** level except ``O0_nofma`` (``--fmad=true`` is
  the nvcc default; only the explicit ``--fmad=false`` disables it) — hence
  the paper's flat nvcc rows in Tables 4/5 and the nonzero nvcc O0 vs
  O0_nofma entry in Table 5;
* models the CUDA port's **warp-level reduction**: innermost reduction
  loops widen to :data:`~repro.toolchains.optlevels.WARP_WIDTH` (32)
  lanes with a ``butterfly`` (``shfl_down``-style) horizontal reduction.
  The warp structure is a property of the translation, not of an
  optimization level, so — like FMA contraction — it applies at every
  level except the explicit most-IEEE baseline ``O0_nofma``, keeping the
  nvcc column flat across O0..O3;
* **predicates** conditional loop bodies at every vectorizing level:
  warp "branches" are predication (divergent lanes execute both sides
  under an active mask), a property of the machine rather than of an
  optimization level, so conditional reductions if-convert and widen
  wherever the warp reduction itself engages;
* under ``--use_fast_math`` the *single-precision* pipeline additionally
  flushes subnormals to zero and uses approximate division/square root and
  hardware intrinsics; double-precision math is unaffected (matching CUDA's
  documented fast-math scope, and the paper's nearly-flat nvcc column in
  Table 5).
"""

from __future__ import annotations

from repro.fp.env import FPEnvironment
from repro.fp.formats import Precision
from repro.fp.mathlib import CudaLibm, FastCudaLibm, NvccVecLibm
from repro.ir.passes import FmaContract, IfConvert, PassPipeline, Vectorize
from repro.toolchains.base import Compiler, CompilerKind
from repro.toolchains.optlevels import OptLevel, TierPolicy, tier_policy

__all__ = ["NvccCompiler"]


class NvccCompiler(Compiler):
    name = "nvcc"
    kind = CompilerKind.DEVICE
    version = "12.3"

    #: fraction of eligible multiply-add sites ptxas actually fuses (see
    #: :class:`~repro.ir.passes.fma_contract.FmaContract` — selective,
    #: deterministic per site, identical across levels)
    DEFAULT_FMAD_PROB = 0.10

    def __init__(
        self,
        precision: Precision = Precision.DOUBLE,
        fmad_prob: float = DEFAULT_FMAD_PROB,
        tiers: str = "baseline",
    ) -> None:
        #: kernel precision: fast-math FTZ/approx units apply to FP32 only.
        self.precision = precision
        self.fmad_prob = fmad_prob
        #: divergence-tier profile (see ``optlevels.tier_policy``)
        self.tiers = tiers

    #: warp reductions combine lanes shfl_down-style (recursive halves)
    REDUCE_STYLE = "butterfly"

    def _policy(self, level: OptLevel) -> TierPolicy:
        return tier_policy(self.name, level, self.tiers)

    def pipeline(self, level: OptLevel) -> PassPipeline:
        pol = self._policy(level)
        if not pol.vector_width:
            return PassPipeline()
        return PassPipeline(
            [
                FmaContract(site_prob=self.fmad_prob),
                IfConvert(),
                Vectorize(
                    pol.vector_width,
                    style=self.REDUCE_STYLE,
                    masked=True,
                    int_guards=pol.int_guards,
                    mixed=pol.mixed_precision,
                ),
            ]
        )

    def cache_token(self, level: OptLevel) -> str:
        # One FmaContract+Vectorize pipeline everywhere except O0_nofma;
        # fast math changes the environment only for single-precision
        # kernels.  The token carries the instance knobs because keys built
        # from it include only the family name, and two NvccCompiler
        # instances may differ.
        cfg = f"{self.precision.value},fmad={self.fmad_prob}"
        if self.tiers != "baseline":
            cfg += f",tiers={self.tiers}"
        if level is OptLevel.O0_NOFMA:
            return f"O0_nofma[{cfg}]"
        fast32 = (
            level is OptLevel.O3_FASTMATH and self.precision is Precision.SINGLE
        )
        if fast32:
            return f"fast32[{cfg}]"
        return f"fmad[{cfg}]"

    def environment(self, level: OptLevel) -> FPEnvironment:
        fast32 = (
            level is OptLevel.O3_FASTMATH and self.precision is Precision.SINGLE
        )
        if fast32:
            # The SIMT-intrinsic vector library follows fast math's
            # single-precision scope, like the FTZ/approx units.
            veclibm = NvccVecLibm() if self._policy(level).vec_libm else None
            return FPEnvironment(
                precision=self.precision,
                libm=FastCudaLibm(),
                ftz=True,
                approx_div=True,
                approx_sqrt=True,
                veclibm=veclibm,
            )
        return FPEnvironment(precision=self.precision, libm=CudaLibm())
