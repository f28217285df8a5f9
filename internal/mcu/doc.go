// Package mcu simulates the three commodity STM32 microcontrollers the
// paper characterizes (Table 1): latency via a per-kernel cycle-cost model
// hand-set toward the paper's measured throughputs, and energy via the
// paper's empirical finding that power is workload-independent (§3.4).
// Deploy is the one measurement of a lowered model on a device: it plans
// the memory through tflm, runs the latency model once, and returns
// memory, latency, power, energy and fit as one Deployment.
//
// This package is the substitution for the physical dev boards (see
// docs/ARCHITECTURE.md): it reproduces the *mechanisms* behind the paper's
// claims — per-layer cost spread that averages out over whole models
// (Fig. 3 vs 4), the CMSIS-NN divisible-by-4 channel fast path (§3.2),
// dual-issue M7 vs M4 (§3.1), and constant power (Fig. 5).
package mcu
