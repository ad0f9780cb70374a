package main

import (
	"testing"

	"fixture/internal/a"
	"fixture/internal/support"
)

func TestOtherPackage(t *testing.T) {
	if a.OnlyOtherTest()+support.Helper() != 7 {
		t.Fatal("OnlyOtherTest")
	}
}
