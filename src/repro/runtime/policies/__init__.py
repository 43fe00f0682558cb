"""Significance-aware execution policies (paper section 3).

========================  =====================================================
Policy                    Paper reference
========================  =====================================================
:class:`GlobalTaskBuffering`   section 3.3 / Listing 4 ("GTB"); the
                               ``buffer_size=None`` flavour is "Max Buffer GTB"
:class:`LocalQueueHistory`     section 3.4 ("LQH")
:class:`SignificanceAgnostic`  section 4.2's significance-agnostic baseline
:class:`OraclePolicy`          the "ideal case" of section 3.2 (analysis aid)
========================  =====================================================
"""

from .agnostic import SignificanceAgnostic
from .base import Policy, PolicyOverheads, resolve_drop
from .gtb import GlobalTaskBuffering, gtb_max_buffer
from .lqh import GroupHistory, LocalQueueHistory
from .oracle import OraclePolicy

__all__ = [
    "Policy",
    "PolicyOverheads",
    "resolve_drop",
    "GlobalTaskBuffering",
    "gtb_max_buffer",
    "LocalQueueHistory",
    "GroupHistory",
    "SignificanceAgnostic",
    "OraclePolicy",
]
