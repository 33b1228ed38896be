"""Support-function calculus, spherical polynomial projections, and
obstruction checks for convex bodies on spheres."""

__version__ = "0.1.0"
