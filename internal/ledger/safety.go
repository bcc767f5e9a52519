package ledger

import "fmt"

// SafetyView is one node's end-of-run ledger view, submitted to
// CheckConsistency. Label identifies the node in error messages.
type SafetyView struct {
	Label  string
	Blocks *BlockStore
	State  *State
	Height uint64
}

// CheckConsistency is the shared end-of-run safety audit used by both the
// BIDL cluster and the fabric baselines: any runtime violation recorded
// during the simulation fails first; then every view's block ledger must be
// prefix-consistent with the first view's; then, within each state group,
// views that reached the same commit height must hold identical world
// states (each height's first-seen view is the reference). system prefixes
// error messages ("core", "fabric").
func CheckConsistency(system string, violations []string, ledgers []SafetyView, stateGroups [][]SafetyView) error {
	if len(violations) > 0 {
		return fmt.Errorf("%s: %d runtime safety violations, first: %s", system, len(violations), violations[0])
	}
	if len(ledgers) > 0 {
		ref := ledgers[0]
		refDigests := ref.Blocks.HeaderDigests()
		for _, v := range ledgers[1:] {
			if !v.Blocks.CommonPrefixEqual(refDigests) {
				return fmt.Errorf("%s: %s ledger diverges from %s", system, v.Label, ref.Label)
			}
		}
	}
	for _, group := range stateGroups {
		first := make(map[uint64]SafetyView, len(group))
		for _, v := range group {
			prev, ok := first[v.Height]
			if !ok {
				first[v.Height] = v
				continue
			}
			if !prev.State.Equal(v.State) {
				return fmt.Errorf("%s: %s and %s states diverge at height %d",
					system, prev.Label, v.Label, v.Height)
			}
		}
	}
	return nil
}
