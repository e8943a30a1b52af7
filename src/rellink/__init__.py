"""Relation linking for KB question answering.

Pipeline: load a knowledge base, enrich each question with its entities'
types and candidate relations, obtain ranked structured sequences from a
generator, validate them against the KB, and emit relation URIs.
"""
