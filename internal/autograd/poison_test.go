package autograd

// The test mode: in this package's test binary, its external tests
// included, every Tape NaN-fills the tensors it takes back, so an op that
// reads a recycled tensor before writing all of it turns its result NaN.
func init() { poisonReleased = true }
