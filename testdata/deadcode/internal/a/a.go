// Package a is the dead-declaration gate's fixture.
package a

import "net/http"

// OnlyOwnTest is used by a_test.go alone: the gate flags it.
func OnlyOwnTest() int { return 1 }

// Queue is generic; cmd/tool calls Lags on a Queue[int] only.
type Queue[T any] struct{ items []T }

// Lags is used only through an instantiation.
func (q *Queue[T]) Lags() int { return len(q.items) }

// statusRecorder's Flush is called only through http.Flusher.
type statusRecorder struct{ http.ResponseWriter }

// Flush satisfies http.Flusher.
func (s *statusRecorder) Flush() {}

// Wrap returns w behind a statusRecorder.
func Wrap(w http.ResponseWriter) http.ResponseWriter { return &statusRecorder{w} }

// UsedByBench is called only by the nested cmd/bench module.
func UsedByBench() int { return 2 }

// OnlyOtherTest is used by cmd/tool's test alone: the gate flags it.
func OnlyOtherTest() int { return 3 }

// OnlyViaSupport is used by the test-support package alone: the gate
// flags it while that package is marked as test support.
func OnlyViaSupport() int { return 4 }
