"""Factorized ridge regression (the related work of Section II), the
``K = 1`` statistics :mod:`repro.maintain` folds."""

from repro.linear.models import LinearModel, fit_ridge

__all__ = ["LinearModel", "fit_ridge"]
