"""Physical parameters and their normalization to Theta.

All quantities are stored in SI units: powers in Watt, bandwidth in Hz, noise
spectral density in W/Hz, channel gain linear (dB conversion happens at the
CLI boundary only), and the load-dependent draw in W per bit/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class ParameterError(ValueError):
    """Raised when a physical parameter is outside its valid range."""


def _require(cond: bool, msg: str, *args) -> None:
    """Raise ParameterError(msg.format(*args)) unless cond."""
    if not cond:
        raise ParameterError(msg.format(*args))


@dataclass(frozen=True)
class SystemParams:
    """Physical and hardware parameters of the downlink.

    B : channel bandwidth (Hz, > 0)
    N0 : noise power spectral density (W/Hz, > 0)
    Gc : average channel power gain (linear, > 0)
    alpha : PA inefficiency, consumed-to-radiated power ratio (>= 1)
    P_BS : per-antenna RF-chain power at the base station (W)
    P_UT : RF-chain power at the user terminal (W)
    P_OSC : local-oscillator power (W)
    P_s : fixed baseband power (W)
    P_dec : load-dependent power, coding/decoding/backhaul (W per bit/s)
    C0 : energy per arithmetic operation of the beamformer (J)
    """

    B: float
    N0: float
    Gc: float
    alpha: float
    P_BS: float = 0.0
    P_UT: float = 0.0
    P_OSC: float = 0.0
    P_s: float = 0.0
    P_dec: float = 0.0
    C0: float = 0.0

    def __post_init__(self):
        for name in ("B", "N0", "Gc", "alpha", "P_BS", "P_UT", "P_OSC",
                     "P_s", "P_dec", "C0"):
            v = getattr(self, name)
            _require(math.isfinite(v), "{} must be finite, got {!r}", name, v)
        _require(self.B > 0, "B must be > 0")
        _require(self.N0 > 0, "N0 must be > 0")
        _require(self.Gc > 0, "Gc must be > 0")
        _require(self.alpha >= 1, "alpha must be >= 1")
        for name in ("P_BS", "P_UT", "P_OSC", "P_s", "P_dec", "C0"):
            _require(getattr(self, name) >= 0, "{} must be >= 0", name)

    @property
    def P_C(self) -> float:
        """Fixed circuit power P_UT + P_OSC + P_s (W)."""
        return self.P_UT + self.P_OSC + self.P_s

    @property
    def per_antenna_power(self) -> float:
        """Per-antenna draw P_BS + 2*C0*B: RF chain plus beamforming ops (W)."""
        return self.P_BS + 2.0 * self.C0 * self.B

    def with_gc(self, Gc: float) -> "SystemParams":
        """Copy with a different channel gain (used by Gc sweeps).

        The other fields were checked when self was made, so only Gc is
        checked here; an invalid Gc goes to the constructor, which raises
        its ParameterError. The copy starts without self's cached Theta.
        """
        if not 0 < Gc < math.inf:
            return replace(self, Gc=Gc)
        copy = object.__new__(SystemParams)
        fields = copy.__dict__
        fields.update(self.__dict__, Gc=Gc)
        fields.pop("_theta", None)
        return copy

    def _compute_theta(self) -> Theta:
        """Theta of self, uncached; `normalize` caches it."""
        draw = self.per_antenna_power
        noise = self.N0 * self.B
        scale = self.Gc / noise if noise > 0 else 0.0
        rho, rho_c = scale * draw, scale * self.P_C
        rho_d = self.Gc * self.P_dec / self.N0
        # a positive rho and a finite sum imply every check below: a draw
        # or noise that is 0 or infinite makes rho 0 or nan, or the sum
        # infinite. The checks run only to name the fault.
        if not (rho > 0 and rho + rho_c + rho_d < math.inf):
            _require(draw > 0, "per-antenna power P_BS + 2*C0*B must be > 0")
            _require(math.isfinite(draw), "per-antenna power P_BS + 2*C0*B "
                     "must be finite, got {!r}", draw)
            _require(noise > 0, "noise power N0*B underflows to 0 (N0 = "
                     "{!r}, B = {!r})", self.N0, self.B)
            gc_db = 10.0 * math.log10(self.Gc)
            _require(noise < math.inf, "noise power N0*B overflows a float, "
                     "so Gc/(N0*B) is 0 (Gc_dB = {:.6g}, N0 = {!r}, B = "
                     "{!r})", gc_db, self.N0, self.B)
            _require(rho > 0, "Gc/(N0*B)*(P_BS + 2*C0*B) underflows to 0 "
                     "(Gc/(N0*B) = {:.6g}, P_BS + 2*C0*B = {:.6g}; Gc_dB = "
                     "{:.6g}, N0 = {!r}, B = {!r})", scale, draw, gc_db,
                     self.N0, self.B)
            _require(math.isfinite(rho + rho_c + rho_d), "Theta overflows: "
                     "Gc/(N0*B) = {:.6g} times the power draws (Gc_dB = "
                     "{:.6g})", scale, gc_db)
        return Theta(self.alpha, rho, rho_c, rho_d)


@dataclass(frozen=True)
class Theta:
    """Dimensionless parameter vector (alpha, rho, rho_c, rho_d).

    rho scales the per-antenna draw, rho_c the fixed circuit draw, rho_d the
    per-rate draw; all by the channel-gain-to-noise ratio.
    """

    alpha: float
    rho: float
    rho_c: float
    rho_d: float

    def __post_init__(self):
        # one chained test (false for nan and inf) when every field is valid;
        # the checks below run only to name the bad field
        inf = math.inf
        if (1 <= self.alpha < inf and 0 < self.rho < inf
                and 0 <= self.rho_c < inf and 0 <= self.rho_d < inf):
            return
        for name in ("alpha", "rho", "rho_c", "rho_d"):
            v = getattr(self, name)
            _require(math.isfinite(v), "{} must be finite, got {!r}", name, v)
        _require(self.alpha >= 1, "alpha must be >= 1")
        _require(self.rho > 0, "rho must be > 0")
        _require(self.rho_c >= 0, "rho_c must be >= 0")
        _require(self.rho_d >= 0, "rho_d must be >= 0")


def normalize(params: SystemParams) -> Theta:
    """Map physical parameters to the dimensionless vector Theta.

    Computed once per SystemParams instance and kept in the instance's
    __dict__ under "_theta" (which `with_gc` drops from its copy): classify
    and every objective evaluated at a point share the same Theta. Two
    threads that race here both compute the same Theta. A zero per-antenna
    draw (no bound on the optimal M) is a ParameterError.
    """
    cache = params.__dict__
    try:
        return cache["_theta"]
    except KeyError:
        theta = cache["_theta"] = params._compute_theta()
        return theta
