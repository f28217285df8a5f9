package lib

import "testing"

func TestOwn(t *testing.T) {
	if OnlyOwnTests() != 3 {
		t.Fatal("OnlyOwnTests")
	}
}
