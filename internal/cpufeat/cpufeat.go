// Package cpufeat reports the instruction-set extensions the vector
// bodies in internal/kernels and internal/tensor need. It is read once per
// process; under -tags purego, and off amd64, every feature reads false,
// so only the portable Go bodies run.
package cpufeat
