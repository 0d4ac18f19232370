"""Poroelastic near-field scattering synthesis and sampling-method imaging."""
