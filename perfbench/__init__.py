"""The curvelayers benchmark; see README.md in this directory."""
