"""SADP cut-process design rules."""

from .design_rules import DesignRules

__all__ = ["DesignRules"]
