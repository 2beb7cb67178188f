"""Cache substrate: geometry, conventional caches, hierarchy, DRAM."""
