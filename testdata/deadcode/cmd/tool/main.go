package main

import (
	"fmt"
	"net/http/httptest"

	"fixture/internal/a"
)

func main() {
	var q a.Queue[int]
	fmt.Println(q.Lags(), a.Wrap(httptest.NewRecorder()))
}
