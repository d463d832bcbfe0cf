"""Scalar↔vector parity registry (MOD003).

Every public batched kernel in :mod:`repro.vector.kernels` is a
transcription of a scalar reference algorithm, and the two must stay
equivalent unit for unit — that equivalence is a representation
invariant of the columnar backend, not a nicety (see DESIGN.md).  This
registry makes the pairing explicit and machine-checkable: ``repro-lint``
rule MOD003 verifies that every kernel appears here and that the named
equivalence property test exists in ``tests/test_vector_properties.py``.

Keep the dict a pure literal: the checker reads it with the stdlib
``ast`` module, without importing numpy.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class KernelParity(NamedTuple):
    """One kernel's scalar twin and the property test pinning them."""

    #: Dotted path of the scalar reference implementation.
    scalar: str
    #: Name of the equivalence test in tests/test_vector_properties.py.
    test: str


KERNEL_PARITY: Dict[str, KernelParity] = {
    "locate_units": KernelParity(
        scalar="repro.temporal.mapping.Mapping.unit_at",
        test="test_locate_units_matches_unit_at",
    ),
    "atinstant_batch": KernelParity(
        scalar="repro.temporal.mapping.Mapping.value_at",
        test="test_matches_scalar_atinstant",
    ),
    "ureal_atinstant_batch": KernelParity(
        scalar="repro.temporal.ureal.UReal.value_at",
        test="test_matches_scalar_ureal",
    ),
    "bbox_filter_batch": KernelParity(
        scalar="repro.spatial.bbox.Cube.intersects",
        test="test_bbox_filter_matches_scalar",
    ),
    "segs_to_array": KernelParity(
        scalar="repro.geometry.segment.Seg",
        test="test_segs_to_array_round_trip",
    ),
    "crossings_above_batch": KernelParity(
        scalar="repro.geometry.plumbline.crossings_above",
        test="test_crossings_match_scalar",
    ),
    "on_boundary_batch": KernelParity(
        scalar="repro.geometry.segment.point_on_seg",
        test="test_on_boundary_matches_point_on_seg",
    ),
    "inside_prefilter": KernelParity(
        scalar="repro.geometry.plumbline.point_in_segset",
        test="test_inside_matches_point_in_segset",
    ),
    "window_times_batch": KernelParity(
        scalar="repro.ops.window.upoint_within_rect_times",
        test="test_window_times_batch_matches_scalar",
    ),
    "window_intervals_batch": KernelParity(
        scalar="repro.ops.window.mpoint_within_rect_times",
        test="test_window_intervals_batch_matches_scalar",
    ),
    "path_length_batch": KernelParity(
        scalar="repro.temporal.mapping.MovingPoint.trajectory",
        test="test_path_length_bounds_and_certifies_trajectory_length",
    ),
}
