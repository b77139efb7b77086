"""Dashboard: the query facade, renderers, timelapse, and HTTP server."""
