// Package lib is the deadexport fixture's analyzed package.
package lib

import (
	"fmt"
	"net/http"
)

// Entry has no user in the module: only the bench-like package calls it.
func Entry() int {
	var l Live
	l.Used()
	Start(Impl{})
	fmt.Sprint(Level(1))
	return helper()
}

func helper() int { return Recursive(1) }

// Dead has no user at all.
func Dead() {} // want:deadexport

// DeadType has no user at all; its own method does not make it used.
type DeadType struct{} // want:deadexport

func (DeadType) Touch() DeadType { return DeadType{} } // want:deadexport

// Live is used by Entry, one of its methods is not.
type Live struct{}

func (Live) Used() {}

func (Live) Unused() {} // want:deadexport

// OnlyOwnTests is named only by this package's tests, in-package and
// external.
func OnlyOwnTests() int { return 3 } // want:deadexport

// NamedByOtherTest is named by another package's test.
func NamedByOtherTest() int { return 4 }

// Recursive calls itself; only helper's call counts.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Runner is a module-local interface; Impl.Run is reached through it.
type Runner interface{ Run() }

type Impl struct{}

func (Impl) Run() {}

func Start(r Runner) { r.Run() }

// Recorder wraps a ResponseWriter. net/http calls its Write and
// WriteHeader; nothing in the module does.
type Recorder struct {
	http.ResponseWriter
	Code int
}

func Wrap(w http.ResponseWriter) http.ResponseWriter { return &Recorder{ResponseWriter: w} }

func (r *Recorder) WriteHeader(code int) {
	r.Code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *Recorder) Write(p []byte) (int, error) { return r.ResponseWriter.Write(p) }

// Level is printed through fmt, which calls its String method; no
// code names fmt.Stringer.
type Level int

func (Level) String() string { return "level" }

// Version is a dead const.
const Version = 1 // want:deadexport
