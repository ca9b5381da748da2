"""Small isotropic video diffusion transformer and its deterministic forward pass.

Each block applies spatial attention (per frame, over tokens), temporal
attention (per token position, over frames), then a two-layer MLP, all with
residual connections and an RMS pre-normalization that keeps activations
bounded over the denoising loop. The latent is a (frames, tokens, dim)
float64 tensor.

Weights are regenerated deterministically from the config seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import sq_norm
from .metrics import macs_mlp

# Step-size schedule: large at both ends of the run, small in the middle, so
# adjacent-step attention drift shows the U-shaped profile the cache
# scheduler exploits. Tuned at desk scale (m=64, s=64, f=8, T=30).
ETA_LO = 0.004
ETA_HI = 0.5
ETA_POWER = 3.0

# Amplitude of the sinusoidal timestep embedding added before block 1.
TEMB_AMP = 0.05

RMS_EPS = 1e-12

# The softmax skips its row-max shift when every score is at most this in
# magnitude: e^600 * L stays finite and e^-600 is a normal double, so no row
# overflows or sums to zero.
SHIFT_FREE_BOUND = 600.0


class NumericError(RuntimeError):
    """A run produced non-finite values."""


# Each header and flag key of a model spec, and the ModelConfig field it sets.
SPEC_KEYS = {"blocks": "num_blocks", "dim": "model_dim", "tokens": "tokens_per_frame",
             "frames": "num_frames", "steps": "num_steps", "seed": "seed"}


@dataclass(frozen=True)
class ModelConfig:
    num_blocks: int
    model_dim: int
    tokens_per_frame: int
    num_frames: int
    num_steps: int
    seed: int

    def __post_init__(self):
        if min(self.num_blocks, self.model_dim, self.tokens_per_frame,
               self.num_frames, self.num_steps) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.model_dim < 4:
            raise ValueError("model_dim must be >= 4")
        if self.num_steps < 2:
            raise ValueError("num_steps must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def header(self) -> dict:
        return {key: getattr(self, name) for key, name in SPEC_KEYS.items()}


@dataclass(frozen=True)
class AttentionWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    # The value and output projections folded into one m x m matrix, formed
    # once here, so the value path of every cell is one projection.
    w_vo: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "w_vo", self.w_v @ self.w_o)


@dataclass(frozen=True)
class MlpWeights:
    w1: np.ndarray  # m x 2m
    b1: np.ndarray  # 2m
    w2: np.ndarray  # 2m x m
    b2: np.ndarray  # m


@dataclass(frozen=True)
class BlockWeights:
    spatial: AttentionWeights
    temporal: AttentionWeights
    mlp: MlpWeights


@dataclass(frozen=True)
class AttentionResult:
    """One attention evaluation: row-stochastic map and projected output."""

    map: np.ndarray  # [inst x] seq x seq
    output: np.ndarray  # [inst x] seq x m

    # Squared norms for the decide, which reads a result as the reference
    # of up to K distances per tier: each is summed once, when first read.
    @functools.cached_property
    def map_sq(self) -> float:
        return sq_norm(self.map)

    @functools.cached_property
    def output_sq(self) -> float:
        return sq_norm(self.output)


# Each attention kind, in execution order within a block, and the axis order
# that takes the (frames, tokens, dim) latent to its (instances, sequence,
# dim) stack. Each order is its own inverse, so it takes a stack back too.
KIND_AXES = {"spatial": (0, 1, 2), "temporal": (1, 0, 2)}
ATTENTION_KINDS = tuple(KIND_AXES)


def _rng_pair(seed: int):
    w_ss, x_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.Generator(np.random.PCG64(w_ss)), np.random.Generator(np.random.PCG64(x_ss))


def init_model(cfg: ModelConfig) -> list[BlockWeights]:
    """Seeded weights, 1/sqrt(m) scale; identical cfg gives identical bytes."""
    rng, _ = _rng_pair(cfg.seed)
    m = cfg.model_dim
    scale = 1.0 / np.sqrt(m)
    blocks = []
    for _ in range(cfg.num_blocks):
        def draw(*shape):
            return rng.standard_normal(shape) * scale

        spatial = AttentionWeights(draw(m, m), draw(m, m), draw(m, m), draw(m, m))
        temporal = AttentionWeights(draw(m, m), draw(m, m), draw(m, m), draw(m, m))
        mlp = MlpWeights(draw(m, 2 * m), draw(2 * m), draw(2 * m, m), draw(m))
        blocks.append(BlockWeights(spatial=spatial, temporal=temporal, mlp=mlp))
    return blocks


def init_latent(cfg: ModelConfig) -> np.ndarray:
    _, rng = _rng_pair(cfg.seed)
    return rng.standard_normal((cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim))


def eta_schedule(t: int, num_steps: int) -> float:
    """Step size for physical step t (t runs num_steps..1; num_steps >= 2)."""
    u = (t - 1) / (num_steps - 1)
    return ETA_LO + (ETA_HI - ETA_LO) * abs(2.0 * u - 1.0) ** ETA_POWER


def time_embedding(t: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of the physical step index, length dim."""
    emb = np.empty(dim)
    positions = np.arange(dim)
    freqs = np.power(10000.0, -2.0 * (positions // 2) / dim)
    angles = t * freqs
    emb[0::2] = np.sin(angles[0::2])
    emb[1::2] = np.cos(angles[1::2])
    return emb


def rms_normalize(x: np.ndarray) -> np.ndarray:
    """Scale each matrix (the last two axes) to unit root-mean-square entry magnitude."""
    seq, m = x.shape[-2:]
    rms = np.sqrt(np.sum(np.square(x), axis=(-2, -1), keepdims=True)) / np.sqrt(seq * m)
    return x / np.maximum(rms, RMS_EPS)


def attention(x_stack: np.ndarray, w: AttentionWeights, qk=None, amap=None):
    """Single-head attention over a stack of instances (inst, L, m) in one pass.

    Returns (o_stack, a_stack). `qk=(wq_sliced, wk_sliced)` computes the
    scores from the PCAS-sliced query/key projections; `amap` reuses a cached
    map and skips Q/K entirely. Scores keep the full-width 1/sqrt(m) scale,
    so slicing at n = m reproduces full attention. Every path applies the
    map to x @ w.w_vo, the value and output projections in one product. A
    single (L, m) instance works as well. MACs are not computed here: the
    closed forms in `metrics` are the only accounting.
    """
    if amap is None:
        wq, wk = qk if qk is not None else (w.w_q, w.w_k)
        # The 1/sqrt(m) scale goes on the queries, an L x m pass instead of
        # an L x L one. By Cauchy-Schwarz, max |q_i| * max |k_j| over the
        # stack bounds every score. Under SHIFT_FREE_BOUND the softmax skips
        # the row-max reduction and subtraction, a shift that cancels in the
        # normalization anyway. The map is built in the score product's
        # buffer, and q and k are released before the value path, so the
        # peak stays near one map. The divide stays a divide: a reciprocal
        # multiply can leave a single-column row at 1 - 2^-53.
        q = x_stack @ wq
        q /= np.sqrt(w.w_q.shape[0])
        k = x_stack @ wk
        bound = math.sqrt(np.einsum("...ij,...ij->...i", q, q).max()
                          * np.einsum("...ij,...ij->...i", k, k).max())
        amap = q @ k.swapaxes(-1, -2)
        del q, k
        if bound > SHIFT_FREE_BOUND:
            amap -= amap.max(axis=-1, keepdims=True)
        np.exp(amap, out=amap)
        amap /= amap.sum(axis=-1, keepdims=True)
    return amap @ (x_stack @ w.w_vo), amap


# The tanh GELU 0.5 * h * (1 + tanh(sqrt(2/pi) * (h + 0.044715 * h^3))) is
# h / (1 + exp(h * (GELU_C0 + GELU_C1 * h^2))).
GELU_C0 = -2.0 * math.sqrt(2.0 / math.pi)
GELU_C1 = 0.044715 * GELU_C0


def gelu_in_place(h: np.ndarray) -> np.ndarray:
    """The tanh GELU of h, written over h, in its exp form: numpy's exp
    costs well under half its tanh. Returns h.

    Overflow is harmless here. Far below zero the exponent is +inf, and
    h / inf is the -0 the GELU tends to; far above zero it is -inf, and
    the quotient is h.
    """
    with np.errstate(over="ignore"):
        g = h * h
        g *= GELU_C1
        g += GELU_C0
        g *= h
        np.exp(g, out=g)
    g += 1.0
    return np.divide(h, g, out=h)


def mlp_forward(x: np.ndarray, w: MlpWeights) -> np.ndarray:
    """Two-layer MLP with the tanh-approximated GELU, which runs in place
    on the hidden activations and one buffer of their size."""
    h = x @ w.w1
    h += w.b1
    out = gelu_in_place(h) @ w.w2
    out += w.b2
    return out


def unit_input_stack(state: np.ndarray, kind: str) -> np.ndarray:
    """Extract the per-instance sequences an attention unit operates on.

    Spatial: one instance per frame, shape (f, s, m). Temporal: one instance
    per token position, shape (s, f, m). Each instance is RMS-normalized,
    which is what the unit (and PCAS calibration) actually consumes.
    """
    return rms_normalize(np.ascontiguousarray(state.transpose(KIND_AXES[kind])))


def apply_unit_output(state: np.ndarray, kind: str, o_stack: np.ndarray) -> np.ndarray:
    """Residual-add a unit's stacked outputs back onto the latent."""
    return state + o_stack.transpose(KIND_AXES[kind])


def apply_mlp(state: np.ndarray, block: BlockWeights):
    f, s, m = state.shape
    tokens = state.reshape(f * s, m)
    out = mlp_forward(rms_normalize(tokens), block.mlp)
    return state + out.reshape(f, s, m), macs_mlp(f * s, m)


def attention_weights_for(block: BlockWeights, kind: str) -> AttentionWeights:
    """The weights of `block`'s attention of `kind`, one of ATTENTION_KINDS."""
    return getattr(block, kind)


def check_finite(state: np.ndarray, step: int):
    if not np.all(np.isfinite(state)):
        raise NumericError(f"non-finite latent values at step {step}")
