"""The cross-module contract passes (XMOD002-XMOD004).

Importing this package registers every pass with
:func:`repro.analysis.static.core.all_rules`.
"""

from repro.analysis.static.passes import metrics, schemas, states  # noqa: F401
