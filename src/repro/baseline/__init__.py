"""Comparators: the DBMS row store and the Fig. 9 system variants."""
