package lib_test

import (
	"testing"

	"micronets/internal/fixture/deadexport/lib"
)

func TestExternal(t *testing.T) {
	if lib.OnlyOwnTests() != 3 {
		t.Fatal("OnlyOwnTests")
	}
}
