"""Parameter blocks for the network, the bargaining rules, the learners, and a run.

Defaults follow the reference scenario used throughout the tests: a single
400 m cell, cell-edge cellular users (CUs), relay-capable D2D pairs between
150 and 250 m from the base station, and fourth-power path loss. Each
parameter is named once, here: ``config_io`` derives the config-file keys
from these fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError


# The checks below build their messages only on failure: formatting them up
# front cost more than the checks themselves, on every construction.


def _require_finite(params) -> None:
    """Reject infinite or NaN floats, also inside tuple-valued fields."""
    for name, value in vars(params).items():
        if isinstance(value, tuple):
            bad = any(isinstance(v, float) and not math.isfinite(v) for v in value)
        else:
            bad = isinstance(value, float) and not math.isfinite(value)
        if bad:
            raise ConfigurationError(f"{name} (={value}) must be finite")


@dataclass(frozen=True)
class TopologyParams:
    """Geometry of one cell: node counts, placement annuli, path loss."""

    num_cus: int = 2
    num_d2d: int = 2
    cell_radius: float = 400.0
    cu_min_bs_distance: float = 300.0
    dt_bs_distance_range: tuple[float, float] = (150.0, 250.0)
    d2d_link_range: tuple[float, float] = (10.0, 60.0)
    path_loss_exponent: float = 4.0

    def __post_init__(self):
        _require_finite(self)
        if not self.num_cus >= 1:
            raise ConfigurationError(f"num_cus (={self.num_cus}) must be >= 1")
        if not self.num_d2d >= 1:
            raise ConfigurationError(f"num_d2d (={self.num_d2d}) must be >= 1")
        if not 0 < self.cu_min_bs_distance <= self.cell_radius:
            raise ConfigurationError(
                f"cu_min_bs_distance (={self.cu_min_bs_distance}) must be in (0, "
                f"cell_radius={self.cell_radius}]"
            )
        for name, (low, high) in (
            ("dt_bs_distance_range", self.dt_bs_distance_range),
            ("d2d_link_range", self.d2d_link_range),
        ):
            if not 0 < low <= high:
                raise ConfigurationError(f"{name} (={low}, {high}) must satisfy 0 < low <= high")
        if not self.path_loss_exponent > 0:
            raise ConfigurationError(
                f"path_loss_exponent (={self.path_loss_exponent}) must be > 0"
            )


@dataclass(frozen=True)
class SystemParams:
    """Transmit powers, noise, and the bargaining-rule constants.

    Powers are in watts; the default noise power 1e-13 W is -100 dBm.
    ``alpha_low``/``alpha_high`` bound the D2D time allocation, ``theta`` is
    the per-proposal negotiation cost, and ``theta_prime`` is the margin added
    to ``alpha_high`` so that an exploring proposal always wins a relay's
    choice.
    """

    p_c: float = 0.02
    p_d: float = 0.02
    n_0: float = 1e-13
    alpha_low: float = 0.1
    alpha_high: float = 0.5
    theta: float = 1e-3
    theta_prime: float = 1e-3

    def __post_init__(self):
        _require_finite(self)
        for name in ("p_c", "p_d", "n_0"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(f"{name} (={value}) must be > 0")
        if not 0 < self.alpha_low < self.alpha_high < 1:
            raise ConfigurationError(
                f"need 0 < alpha_low (={self.alpha_low}) < alpha_high (={self.alpha_high}) < 1"
            )
        for name in ("theta", "theta_prime"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(f"{name} (={value}) must be > 0")
        if not self.alpha_high + self.theta_prime < 1:
            raise ConfigurationError(
                f"alpha_high + theta_prime (={self.alpha_high + self.theta_prime}) must be < 1"
            )

    @property
    def alpha_explore(self) -> float:
        """Time allocation announced by exploring proposals; beats any bargained one."""
        return self.alpha_high + self.theta_prime


@dataclass(frozen=True)
class LearningParams:
    """Knobs of the learning policies and the simulated horizon."""

    epsilon0: float = 0.1
    zeta: float = 0.1
    xi: float = 0.2
    memory_length: int = 4
    horizon: int = 10_000

    def __post_init__(self):
        _require_finite(self)
        for name in ("epsilon0", "zeta", "xi"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ConfigurationError(f"{name} (={value}) must be in (0, 1)")
        for name in ("memory_length", "horizon"):
            value = getattr(self, name)
            if not value >= 1:
                raise ConfigurationError(f"{name} (={value}) must be >= 1")


POLICIES = ("ebriq", "epsilon_greedy", "random", "noncoop", "gs_oracle")
THROUGHPUT_MODES = ("sampled", "expected")

# What a run keeps must fit in MAX_RUN_BYTES, or its config is rejected before
# anything is allocated. The limit is fixed, not a setting: it keeps a config
# that would exhaust memory partway in from starting at all.
MAX_RUN_BYTES = 4 * 2**30
# Per simulated period: ten 8-byte series in run_experiment and its ResultSet,
# plus one replication's trace (three float64 series and a bool one).
_BYTES_PER_PERIOD = 10 * 8 + 3 * 8 + 1
# Per CU/pair cell of an instance: the rate and score tables and the per-cell
# lists of the environment and the learning agents (about 90 and 130 bytes,
# measured with tracemalloc on 100x100 and 200x300 instances).
_BYTES_PER_CELL = 224
# Per replication: its final alpha-ratio table (8 bytes a cell) and two summaries.
_BYTES_PER_REPLICATION_CELL = 8
_BYTES_PER_REPLICATION = 2 * 8

# The harness draws a replication's fading table a chunk at a time: as many
# periods as fit in this many link samples, at least one. A sample costs its
# float64, its Python float and list slot, and its share of its row's list:
# at most 64 bytes with the fewest links, three a row (measured with
# tracemalloc with 6, 14 and 3000 links). A chunk does not grow with the horizon.
FADING_CHUNK_ELEMENTS = 2**14
_BYTES_PER_FADING_SAMPLE = 64
# The stability of an induced matching is cached per environment, up to this
# many matchings; past it, a matching's stability is computed and not stored.
# A 4x5 instance has at most 5**5 = 3125 induced matchings, so all of them fit.
STABILITY_CACHE_SIZE = 4096
# Per cache entry: the dict slot and the key tuple, plus 8 bytes per pair
# (measured with tracemalloc with 5, 20 and 100 pairs).
_BYTES_PER_CACHE_ENTRY = 112
_BYTES_PER_CACHE_KEY_ITEM = 8


def _format_bytes(size: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024:
            return f"{size:.3g} {unit}"
        size /= 1024
    return f"{size:.3g} TiB"


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: the three parameter blocks plus the policy and the Monte Carlo setup."""

    topology: TopologyParams = TopologyParams()
    system: SystemParams = SystemParams()
    learning: LearningParams = LearningParams()
    policy: str = "ebriq"
    num_replications: int = 1
    seed: int = 0
    fixed_topology: bool = True
    throughput_mode: str = "sampled"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; expected one of {', '.join(POLICIES)}"
            )
        if self.throughput_mode not in THROUGHPUT_MODES:
            raise ConfigurationError(
                f"unknown throughput_mode {self.throughput_mode!r}; "
                f"expected one of {', '.join(THROUGHPUT_MODES)}"
            )
        if self.num_replications < 1:
            raise ConfigurationError(
                f"num_replications (={self.num_replications}) must be >= 1"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(
                f"seed (={self.seed}) must be an unsigned 64-bit integer"
            )
        size = self.run_bytes()
        if size > MAX_RUN_BYTES:
            raise ConfigurationError(
                f"a run of this config needs about {_format_bytes(size)} for its per-period "
                f"series, (M, N) tables and buffers, above the fixed limit of "
                f"{_format_bytes(MAX_RUN_BYTES)}; lower horizon, num_cus, num_d2d or "
                "num_replications"
            )

    def run_bytes(self) -> int:
        """Bytes a run of this config keeps: its series, its tables and its two buffers.

        The buffers are the fading chunk and the stability cache, both of a
        fixed size. Computed from the sizes alone, so a config too large to
        run is rejected (``MAX_RUN_BYTES``) without allocating anything.
        """
        num_cus, num_d2d = self.topology.num_cus, self.topology.num_d2d
        cells = num_cus * num_d2d
        per_replication = cells * _BYTES_PER_REPLICATION_CELL + _BYTES_PER_REPLICATION
        links = num_cus + 2 * num_d2d
        fading_chunk = max(FADING_CHUNK_ELEMENTS, links) * _BYTES_PER_FADING_SAMPLE
        cache = STABILITY_CACHE_SIZE * (_BYTES_PER_CACHE_ENTRY
                                        + num_d2d * _BYTES_PER_CACHE_KEY_ITEM)
        return (self.learning.horizon * _BYTES_PER_PERIOD + cells * _BYTES_PER_CELL
                + self.num_replications * per_replication + fading_chunk + cache)
