"""The warning category every layer uses to announce degradation.

Retries, backend fallbacks, quarantined journal records and in-process
fleet drains all warn with :class:`ResilienceWarning`.  It lives in this
import-free leaf module so the codec layer (``--engine auto``) and the
journals can raise it without importing the :mod:`repro.runtime`
package; :mod:`repro.runtime.supervisor` and :mod:`repro.runtime`
re-export the same class.
"""


class ResilienceWarning(UserWarning):
    """Structured warning for retries, fallbacks, and degradation."""
