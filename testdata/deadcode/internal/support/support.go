// Package support is the fixture's test-support package.
package support

import "fixture/internal/a"

// Helper is used by cmd/tool's test alone.
func Helper() int { return a.OnlyViaSupport() }
