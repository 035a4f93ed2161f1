"""Near-field wideband beam focusing for hybrid TD-PS receive arrays.

Learns quantized phase-shifter settings from power measurements alone and
configures true-time-delay units via a geometry-assisted search, with
CSI-oracle baselines for benchmarking. Import from the submodules
(`beamfocus.channel`, `beamfocus.delay_search`, ...); the package itself
exports nothing.
"""
