"""OSM substrate: element model, XML formats, changesets, history, feeds."""
