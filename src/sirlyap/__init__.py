"""SIR epidemic model stability certification toolkit.

Simulation of the SIR model with demography under time-varying
newborn/immigration rates, explicit piecewise Lyapunov functions for the
disease-free and endemic equilibria, numerical certification of their
decrease and input-to-state stability properties, and level-set extraction.
"""
import sys

#: each public name -> its submodule; both load on first access (PEP 562)
_EXPORTS = {name: mod for mod, names in {
    "errors": "ConfigError DomainError InfeasibleOverride NoConvergence "
              "NonFiniteState R0NotAboveOne RangeError RegimeError SirLyapError",
    "model": "EquilibriumKind ModelParams Regime State classify_regime "
             "disease_free_eq endemic_eq r0_hat",
    "flow": "Constant InputSignal Piecewise Sinusoid Step",
    "ode": "Trajectory integrate",
    "lyap_df": "DfLyapParams DiseaseFreeLyapunov select_df_params",
    "lyap_en": "EndemicLyapunov EnLyapParams check_condition_50 en_eta "
               "en_params_from k0_bound lambda3_bound nu_fun omega omega_inv "
               "p_fun p_inv select_en_params theta theta_inv",
    "verify": "CheckResult VerificationReport run_certification",
    "levelset": "Contour analytic_contour_df extract_contours",
}.items() for name in names.split()}
_SUBMODULES = {"bands", "cli", *_EXPORTS.values()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULES and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_EXPORTS.get(name, name)}"
    __import__(module)  # the import statement's path, which `python -X importtime` reports
    return sys.modules[module] if name in _SUBMODULES else getattr(sys.modules[module], name)


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
