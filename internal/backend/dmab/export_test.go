package dmab

// LiveTargets reports how many VE processes hold target state, for the
// leak test in the external test package.
func LiveTargets() int { return len(states) }
