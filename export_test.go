package hypar

// ResolveCounts returns how many times so far a config has been
// canonicalized, validated, resolved to its per-level assignment and
// built into an Arch, in that order.
func ResolveCounts() [4]int64 {
	return [4]int64{canonicalCalls.Load(), validateCalls.Load(), assignCalls.Load(), archBuilds.Load()}
}
