"""Desk-scale multimodal semantic-communication simulator.

Payloads are converted to text, personalized against a prompt base,
transmitted as QPSK frames over a simulated fading channel with
GAN-assisted channel estimation, then recovered and scored by embedding
cosine similarity.

The modules are the API (``from lammsc import pipeline``); the package
re-exports nothing, so importing one module loads only what it uses.
"""
