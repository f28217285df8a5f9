package other

import (
	"testing"

	"micronets/internal/fixture/deadexport/lib"
)

func TestNamesLib(t *testing.T) {
	if double(lib.NamedByOtherTest()) != 8 {
		t.Fatal("NamedByOtherTest")
	}
}
