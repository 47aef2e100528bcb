"""DTU error codes and the exception that carries them."""

from __future__ import annotations

import enum


class DtuError(enum.Enum):
    """Command completion codes, mirroring the hardware error register."""

    NONE = "none"
    UNKNOWN_EP = "unknown_ep"          # invalid EP id, wrong kind, or
                                       # endpoint owned by another activity
                                       # (section 3.5: deliberately the same
                                       # error, to leak no information)
    MISSING_CREDITS = "missing_credits"
    RECV_GONE = "recv_gone"            # M3x: recipient's EPs not loaded
    RECV_FULL = "recv_full"            # receive buffer has no free slot
    MSG_TOO_LARGE = "msg_too_large"
    TRANSLATION_FAULT = "translation_fault"  # vDTU TLB miss (section 3.6)
    OUT_OF_BOUNDS = "out_of_bounds"    # memory EP range violation
    NO_PERM = "no_perm"                # R/W permission violation
    PAGE_BOUNDARY = "page_boundary"    # transfer crosses a page (section 3.6)
    NO_PMP_EP = "no_pmp_ep"            # physical access hit no PMP endpoint
    FOREIGN_ACT = "foreign_act"        # priv op for an unknown activity
    ABORTED = "aborted"
    # fault-model errors (repro.faults): only produced when a recovery
    # policy / fault injector is installed; both are retryable by the
    # mux-level retransmission layer
    TIMEOUT = "timeout"                # no ACK within the ack-timeout window
    PKT_CORRUPT = "pkt_corrupt"        # link corrupted the payload (checksum)


#: Errors the mux-level recovery layer may transparently retry: all of
#: them leave the credit protocol in a consistent state (the failing
#: command returned its credit) and carry no protocol-visible state.
RETRYABLE_ERRORS = frozenset({DtuError.TIMEOUT, DtuError.PKT_CORRUPT})


class DtuFault(Exception):
    """Raised by command helpers when a command completes with an error."""

    def __init__(self, error: DtuError, detail: str = ""):
        super().__init__(f"{error.value}{': ' + detail if detail else ''}")
        self.error = error
        self.detail = detail
