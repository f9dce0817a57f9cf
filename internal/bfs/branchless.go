package bfs

// Branch-avoiding primitives for the 64-lane kernels, after Green, Dukhan
// and Vuduc's "Branch-Avoiding Graph Algorithms": the mask-update hot loops
// run over data whose branch outcomes are close to random (is this node
// newly seen? did every lane arrive? was it already queued?), so a
// mispredicted branch per visited edge costs more than computing both
// outcomes and selecting arithmetically. The visit loops in msbfs.go and
// mswbfs.go use these helpers to keep their per-node bookkeeping free of
// data-dependent branches; branches that *prune work* (skipping saturated
// rows, the pull early-exit) are kept — those avoid loads, not just control.

// nzb returns 1 when x != 0 and 0 otherwise without a branch: x | -x has its
// top bit set exactly when x is non-zero (for x = 0 both operands are zero;
// otherwise either x or its two's complement has bit 63 set).
func nzb(x uint64) uint64 {
	return (x | -x) >> 63
}
