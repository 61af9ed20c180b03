"""cpdilate: weak tensor dilations and state-covariant extensions of CP maps.

The package constructs, for a normal unital completely positive map S
between finite-dimensional von Neumann algebras in standard form, a weak
tensor dilation (a homomorphism j into B⊗B(K) with a vector state ψ such
that S = (id⊗ψ)∘j), and realizes the duality between such dilations and
unital CP extensions of S to the full operator algebras, with verification
certificates for every construction.
"""

from .algebra import (AlgebraElement, MatrixBlockAlgebra, commutant,
                      coordinate_basis, coordinates, decompose, element,
                      element_from_coordinates, identity, is_cyclic,
                      make_algebra, represent, state_value, zero)
from .cpmap import (CPMap, KrausForm, apply, compose, covariance_residual,
                    identity_map, kraus_decomposition, make_cpmap)
from .dilation import (WeakTensorDilation, nonunital_recovery,
                       verify_dilation, weak_tensor_dilation)
from .duality import (DualityContext, Extension, build_context,
                      dilation_from_extension, double_dual, dual_map,
                      extend_cp_map, extension_from_dilation,
                      is_minimal_dilation, xi_prime)
from .vnmodule import (GNSData, ModuleEmbedding, QONS, embed_qons, gns,
                       inner_product, module_element, polar_decompose_module,
                       qons)

__version__ = "0.1.0"
