"""Domain-adversarial attention networks for cross-event short-text
classification, with token-level attention output."""

__all__ = ["__version__"]

__version__ = "0.1.0"
