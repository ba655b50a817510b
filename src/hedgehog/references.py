"""Point-charge reference solutions for convergence experiments.

The exact field u_c(x) = sum_i G(x, y_i) psi_i with charges y_i outside
the closed domain is harmonic (or Stokes/Navier regular) inside, so the
solver's output can be compared against it pointwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry.embeddings import BoundaryCondition
from .kernels import KernelFamily, point_source_conormal, point_source_field


@dataclass
class ReferenceSolution:
    """Charges on a sphere with strengths in [0, 1]^d, seeded reproducibly."""

    charges: np.ndarray  # (m, 3)
    strengths: np.ndarray  # (m, d)
    kernel: KernelFamily

    @classmethod
    def on_sphere(
        cls,
        kernel: KernelFamily,
        m: int = 100,
        radius: float = 1.0,
        seed: int = 0,
    ) -> "ReferenceSolution":
        if m < 0:
            raise UsageError("charge count cannot be negative")
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(m, 3))
        if m:
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        strengths = rng.uniform(0.0, 1.0, size=(m, kernel.d))
        return cls(
            charges=radius * dirs,
            strengths=strengths,
            kernel=kernel,
        )

    @classmethod
    def single_charge(cls, kernel: KernelFamily, location):
        """One unit-strength charge at location."""
        return cls(
            charges=np.asarray(location, dtype=float).reshape(1, 3),
            strengths=np.ones((1, kernel.d)),
            kernel=kernel,
        )

    def field(self, points) -> np.ndarray:
        return point_source_field(self.kernel, self.charges, self.strengths, points)

    def conormal(self, points, normals) -> np.ndarray:
        return point_source_conormal(
            self.kernel, self.charges, self.strengths, points, normals
        )

    def boundary_condition(self) -> BoundaryCondition:
        return BoundaryCondition(
            evaluator=self.field, dimension=self.kernel.d, smoothness=32
        )
