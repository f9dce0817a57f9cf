package bfs

// The direction-optimisation (Beamer push/pull) switching rule of the
// level-synchronous multi-source sweep (MultiSourceMasksInto and its merged
// tail in msbfs.go), the one unweighted kernel that runs sampled sources, at any
// lane count from 1 to 64. This is the single home of these constants;
// kernels must not copy them.
//
// The rule: switch a level to bottom-up ("pull") when the frontier's
// out-edge count mf exceeds mu/pullAlpha (mu = unexplored directed edges),
// the frontier holds at least n/pullBeta nodes, and mf exceeds
// pullFloor·n.
//
//   - pullAlpha: Beamer et al. use alpha = 14, tuned on suites with average
//     degree 16+ where a pull sweep's scan-until-hit exits quickly. On the
//     sparse graphs this repo's generator families model (average degree
//     3–6) the per-node scan is longer, so pull only pays once the
//     frontier's out-edges approach the unexplored-edge count — level traces
//     across all four families put the break-even near mu/4, and alpha = 4
//     picks exactly the levels where pull wins while never firing on
//     road-like graphs.
//   - pullBeta: flipping back to push when the frontier has fewer than
//     n/pullBeta nodes keeps the O(n) pull sweep off narrow waves and every
//     BFS tail, where mu decays to zero and the alpha test fires vacuously.
//   - pullFloor: the absolute cost floor of a pull level in units of n — the
//     sweep iterates every node, so pull can only beat push when the
//     frontier's out-edge count exceeds a few multiples of n. Web-like
//     graphs with average degree ~3 have wide levels whose mf barely reaches
//     n; the relative alpha test alone would flip them to pull and lose.
//
// All three tests are stateless in (mf, mu, frontier), so kernels flip back
// to push the moment the frontier's edge mass drops instead of waiting out a
// hysteresis window.
const (
	pullAlpha = 4
	pullBeta  = 24
	pullFloor = 2
)

// pullLevel decides whether the next level of a traversal with frontier
// out-edge mass mf, unexplored edge mass mu and the given frontier size
// should run bottom-up.
func pullLevel(mf, mu int64, frontierLen, n int) bool {
	return mf > mu/pullAlpha &&
		int64(frontierLen)*pullBeta >= int64(n) &&
		mf > pullFloor*int64(n)
}
