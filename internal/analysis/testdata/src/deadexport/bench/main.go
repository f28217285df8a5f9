// Command bench stands for bench/: a user of internal packages that no
// analyzer checks.
package main

import (
	"net/http/httptest"

	"micronets/internal/fixture/deadexport/lib"
)

func main() {
	lib.Entry()
	lib.Wrap(httptest.NewRecorder()).WriteHeader(200)
}
