"""End-to-end benchmark of the RPC datapath (see README.md here)."""
