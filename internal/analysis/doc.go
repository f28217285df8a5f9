// Package analysis implements microvet, the repo-specific static
// analyzer driver behind `go run ./cmd/microvet`. It is built purely on
// the standard library (go/parser, go/ast, go/types; package discovery
// via `go list -json`), since the module deliberately has no third-party
// dependencies — including golang.org/x/tools.
//
// Each analyzer encodes one invariant the runtime earned the hard way
// and would otherwise only defend at runtime or in review:
//
//   - hotpathalloc: no allocation-inducing constructs in functions
//     statically reachable from the zero-alloc serve path (the static
//     complement of the AllocsPerRun CI gates).
//   - preparedwrite: prepared kernel/model state is immutable outside
//     the Prepare* construction path (the shared-weights invariant).
//   - droppederr: no silently discarded error values in internal/
//     packages (the `lat, _ :=` silent-metrics bug class).
//   - lockguard: fields annotated `// guarded by X.mu` are only touched
//     by functions that lock that mutex (syntactic approximation).
//   - metricname: metric literals follow the micronets_<subsystem>_...
//     exposition conventions and stay unique across packages.
//   - pkgdoc: first-class packages carry a package comment.
//   - deadexport: an exported identifier of an internal package has a
//     user outside its own package's tests (module code, bench/, or
//     another package's tests).
//
// Violations that are intentional are blessed in place with a
// `//microvet:ignore <analyzer> <reason>` comment; the reason is
// mandatory. See docs/ANALYSIS.md for the full protocol.
package analysis
