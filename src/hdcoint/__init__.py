"""High-dimensional unit-root testing, cointegration and forecasting toolkit."""

from .bootstrap import (AwbConfig, UnionBootstrap, awb_draw,
                        bootstrap_union_distribution, left_tail_quantile,
                        residual_panel)
from .classify import (BsqtConfig, ClassifyConfig, IntegrationReport,
                       classify_bfdr, classify_bsqt, classify_iadf,
                       mackinnon_critical_value, pantula_classify)
from .dgp import (FactorDgpParams, VecmParams, random_vecm_params,
                  simulate_factor_dgp, simulate_mixed_orders, simulate_vecm)
from .errors import (ConvergenceError, DataError, NumericalError,
                     ParameterError, ToolkitError)
from .factors import (FactorModel, count_factors, extract_factors_diff,
                      extract_factors_levels, fecm_forecast, ndfm_forecast,
                      pca_factors, var_bic_forecast)
from .harness import (ForecastReport, HarnessConfig, McsResult, ar_benchmark,
                      mcs, register_method, run_rolling)
from .panel import (DeterministicSpec, Panel, apply_transform, difference,
                    difference_columns, from_values, implied_orders,
                    invert_differences, ols_detrend, validate_codes)
from .singleeq import (PenaltyConfig, SingleEqDesign, SingleEqFit,
                       kkt_residual, padl_fit, sgl_solve, specs_fit,
                       tscv_tune)
from .unitroot import (CriticalValueSet, adf_stat, dfgls_stat, four_stats,
                       select_lags, union_stat)
from .vecm import (VecmModel, default_lambda_grid, johansen_ml, pml_vecm,
                   qr_vecm, select_lag_bic, select_rank_ic,
                   vecm_iterated_forecast)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ToolkitError", "ParameterError", "DataError", "NumericalError",
    "ConvergenceError",
    # panel
    "Panel", "DeterministicSpec", "from_values", "difference",
    "difference_columns", "invert_differences", "apply_transform",
    "implied_orders", "validate_codes", "ols_detrend",
    # unit roots and bootstrap
    "adf_stat", "dfgls_stat", "select_lags", "four_stats", "union_stat",
    "CriticalValueSet", "AwbConfig", "awb_draw", "residual_panel",
    "bootstrap_union_distribution", "UnionBootstrap", "left_tail_quantile",
    # classification
    "ClassifyConfig", "BsqtConfig", "IntegrationReport", "classify_iadf",
    "classify_bsqt", "classify_bfdr", "mackinnon_critical_value",
    "pantula_classify",
    # simulation
    "VecmParams", "FactorDgpParams", "simulate_vecm", "simulate_factor_dgp",
    "simulate_mixed_orders", "random_vecm_params",
    # VECM estimators
    "VecmModel", "johansen_ml", "select_rank_ic", "select_lag_bic",
    "qr_vecm", "pml_vecm", "vecm_iterated_forecast", "default_lambda_grid",
    # factors
    "FactorModel", "extract_factors_diff", "extract_factors_levels",
    "pca_factors", "count_factors", "ndfm_forecast", "fecm_forecast",
    "var_bic_forecast",
    # single-equation selectors
    "PenaltyConfig", "SingleEqDesign", "SingleEqFit", "sgl_solve",
    "kkt_residual", "specs_fit", "padl_fit", "tscv_tune",
    # evaluation
    "HarnessConfig", "ForecastReport", "McsResult", "run_rolling", "mcs",
    "ar_benchmark", "register_method",
]
