"""Exact computation in groups of colored-tree automorphisms: universal
groups, prescribed local actions, piecewise-prescribed groups, and the
convolution obstruction pipeline with machine-checkable certificates.

The package root re-exports nothing; import from the submodules
(`arboreal.cstar_obstruction`, `arboreal.portraits`, ...)."""
