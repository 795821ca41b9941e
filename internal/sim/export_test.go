package sim

// The takeover admission path, opened to the external sim_test suites —
// the only ones that can import diskstore and so run on forEachStore.

// Readmit is readmit.
func (s *Scheduler) Readmit(m JobManifest, arts []ArtifactMeta) error { return s.readmit(m, arts) }

// ErrDuplicate is errDuplicate.
var ErrDuplicate = errDuplicate
