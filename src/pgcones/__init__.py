"""Workbench for cone constructions and counting checks in PG(n,q)."""

from .gf import Field, field_new, subfield
from .pg import Geometry, Subspace, gaussian_binomial, geometry_new, theta
from .objects import (PointSet, baer_cone, baer_subgeometry, cone,
                      denniston_arc, hermitian_unital, hyperoval,
                      hyperoval_cone, maxarc_cone, pointset_from_indices,
                      unital_cone)
from .spectra import (ConeRecognition, PencilProfile, Spectrum,
                      essential_points, is_blocking, pencil_counts,
                      recognize_cone, spectrum)
from .counting import (THEOREMS, Congruence, Theorem, TheoremInstance,
                       TypeParameters, feasible_k,
                       hyperoval3_step1_congruences, lemma_congruence,
                       pencil_feasible, run_verification, screen_defaults,
                       step_sign_check, t_closed_form, theorem_instance,
                       verify_identities)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
