"""Core package (its __init__ imports nothing)."""
