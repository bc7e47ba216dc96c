"""The seeded fault injector: a pure function from (plan, seed, query).

Every decision the injector makes — "is port 3 down in slot 512?",
"does the grant from output 2 to input 7 survive iteration 1 of slot
90?" — is computed by hashing the query coordinates together with the
seed (a splitmix64-style mix). There is **no mutable RNG stream**:

* the same query always returns the same answer, regardless of call
  order or how many other queries were made (replay-safe);
* two components asking about the *same logical message* (the
  reference scheduler and its bitset kernel, say) get the *same* fate,
  which is what makes their lossy runs bit-identical;
* a simulation under a :class:`~repro.faults.plan.FaultPlan` stays a
  pure function of ``(config, scheduler, load, plan, seed)``, so the
  sweep cache and trace replay remain valid.

Per-slot topology masks are memoised (the switch asks several times per
slot) but the memo is only a cache of a pure function. While no
interval, duty cycle or link outage changes state, every query returns
the same array objects, so a caller can key its own derived state on
their identity.
"""

from __future__ import annotations

import numpy as np

# The control-message kinds belong to the protocol; they are part of
# every message's hash key.
from repro.core.lcf_dist import ACCEPT, GRANT, REQUEST
from repro.faults.plan import FaultPlan

__all__ = ["FaultInjector", "REQUEST", "GRANT", "ACCEPT"]

_MASK64 = (1 << 64) - 1
#: Domain-separation salts so e.g. a message's loss draw and a packet's
#: corruption draw are independent.
_SALT_LOSS = 0xA1
_SALT_CORRUPT = 0xA3


def _mix(x: int) -> int:
    """splitmix64 finalizer: avalanche one 64-bit word."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def hash_u64(*parts: int) -> int:
    """Order-sensitive 64-bit hash of a tuple of ints."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = _mix((h + part) & _MASK64)
    return h


def hash01(*parts: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed by the arguments."""
    return hash_u64(*parts) / 2.0**64


class FaultInjector:
    """Turns a :class:`FaultPlan` into concrete per-slot decisions.

    ``n`` is the switch port count (masks are ``n x n``); ``seed``
    separates the fault randomness of replicate runs the same way the
    traffic seed does — the resilience harness passes ``config.seed``.
    """

    def __init__(self, plan: FaultPlan, n: int, seed: int = 0):
        for interval in plan.port_down:
            if interval.port >= n:
                raise ValueError(
                    f"port_down names port {interval.port} on an n={n} switch"
                )
        for duty in plan.port_duty:
            if duty.port >= n:
                raise ValueError(
                    f"port_duty names port {duty.port} on an n={n} switch"
                )
        for outage in plan.link_down:
            if outage.input >= n or outage.output >= n:
                raise ValueError(
                    f"link_down names ({outage.input}, {outage.output}) "
                    f"on an n={n} switch"
                )
        self.plan = plan
        self.n = n
        self.seed = seed & _MASK64
        self._mask_slot = -1
        self._mask: np.ndarray | None = None
        self._down_in: np.ndarray | None = None
        self._down_out: np.ndarray | None = None
        self._degraded = False
        # Every topology fault, and which were active when the arrays
        # above were built.
        self._faults = plan.port_down + plan.port_duty + plan.link_down
        self._active: list[bool] | None = None

    # -- topology faults -----------------------------------------------------

    def _topology(self, slot: int) -> None:
        """Memoise down-port vectors, the request mask and the degraded
        flag for one slot; they are rebuilt only when some fault's
        ``active(slot)`` differs from when they were last built."""
        if slot == self._mask_slot:
            return
        self._mask_slot = slot
        active = [fault.active(slot) for fault in self._faults]
        if active == self._active:
            return
        self._active = active
        n = self.n
        down_in = np.zeros(n, dtype=bool)
        down_out = np.zeros(n, dtype=bool)
        for interval in self.plan.port_down + self.plan.port_duty:
            if interval.active(slot):
                if interval.hits_input:
                    down_in[interval.port] = True
                if interval.hits_output:
                    down_out[interval.port] = True
        mask = ~down_in[:, np.newaxis] & ~down_out[np.newaxis, :]
        for outage in self.plan.link_down:
            if outage.active(slot):
                mask[outage.input, outage.output] = False
        self._down_in = down_in
        self._down_out = down_out
        self._mask = mask
        # A down port clears its whole row or column of the mask.
        self._degraded = not mask.all()

    def down_inputs(self, slot: int) -> np.ndarray:
        """Boolean vector of dead input sides this slot."""
        self._topology(slot)
        return self._down_in

    def down_outputs(self, slot: int) -> np.ndarray:
        """Boolean vector of dead output sides this slot."""
        self._topology(slot)
        return self._down_out

    def request_mask(self, slot: int) -> np.ndarray:
        """``(n, n)`` usability mask: True = the crosspoint works.

        Combines down input rows, down output columns, and individual
        link outages. The switch ANDs this into the request matrix
        before scheduling and filters any grant falling outside it.
        """
        self._topology(slot)
        return self._mask

    def degraded(self, slot: int) -> bool:
        """True iff any topology fault is active this slot."""
        self._topology(slot)
        return self._degraded

    # -- control-message faults ----------------------------------------------

    def _loss_rate(self, kind: int) -> float:
        if kind == REQUEST:
            return self.plan.request_loss
        if kind == GRANT:
            return self.plan.grant_loss
        return self.plan.accept_loss

    def message_survives(
        self, slot: int, iteration: int, kind: int, src: int, dst: int
    ) -> bool:
        """Fate of one control message, pure in its coordinates."""
        rate = self._loss_rate(kind)
        if rate <= 0.0:
            return True
        return hash01(self.seed, _SALT_LOSS, slot, iteration, kind, src, dst) >= rate

    # -- Clint CRC corruption ------------------------------------------------

    def corrupts(self, slot: int, host: int, channel: str) -> bool:
        """True iff this host's packet on ``channel`` is hit this slot."""
        return any(
            burst.host == host and burst.channel == channel and burst.active(slot)
            for burst in self.plan.crc_bursts
        )

    def corruption_bit(self, slot: int, host: int, length_bytes: int) -> int:
        """Deterministic bit index to flip in a corrupted packet."""
        return hash_u64(self.seed, _SALT_CORRUPT, slot, host) % (length_bytes * 8)

    # -- classification pass-throughs ----------------------------------------

    @property
    def is_null(self) -> bool:
        return self.plan.is_null

    @property
    def has_message_faults(self) -> bool:
        return self.plan.has_message_faults

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjector(n={self.n}, seed={self.seed}, {self.plan.describe()})"
