package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouteAnswers pins what the router (http.ServeMux) answers outside
// the five routes' handlers: the 405 for every wrong method on each route,
// with its Allow header and body; HEAD on the two GET routes, which the mux
// serves with the GET handler; the 404 for an unknown path and for a
// session path with an empty ID; and the 301 to the cleaned path. A router
// that replaces the mux must answer these the same way.
func TestRouteAnswers(t *testing.T) {
	srv := NewServer(Config{})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "s1", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status            int
		allow, location   string
		contentType, body string
	}
	const (
		textPlain = "text/plain; charset=utf-8"
		notAllow  = "Method Not Allowed\n"
		notFound  = "404 page not found\n"
	)
	check := func(method, path string, want answer) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, "http://qcoordd"+path, nil))
		got := answer{w.Code, w.Header().Get("Allow"), w.Header().Get("Location"), w.Header().Get("Content-Type"), w.Body.String()}
		if want.body == "*" { // a handler's own body, not the router's
			got.body = "*"
		}
		if got != want {
			t.Errorf("%s %s:\n got %+v\nwant %+v", method, path, got, want)
		}
	}

	methods := []string{"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS", "TRACE"}
	for _, route := range []struct{ path, allow string }{
		{"/v1/sessions", "POST"},
		{"/v1/sessions/s1", "GET, HEAD"},
		{"/v1/decide", "POST"},
		{"/v1/decide/batch", "POST"},
		{"/metrics", "GET, HEAD"},
	} {
		for _, m := range methods {
			if strings.Contains(route.allow, m) {
				continue
			}
			check(m, route.path, answer{status: http.StatusMethodNotAllowed, allow: route.allow, contentType: textPlain, body: notAllow})
		}
	}

	check("HEAD", "/v1/sessions/s1", answer{status: http.StatusOK, contentType: "application/json", body: "*"})
	check("HEAD", "/metrics", answer{status: http.StatusOK, contentType: textPlain, body: "*"})

	for _, m := range methods {
		check(m, "/nope", answer{status: http.StatusNotFound, contentType: textPlain, body: notFound})
		check(m, "/v1/sessions/", answer{status: http.StatusNotFound, contentType: textPlain, body: notFound})
	}

	check("GET", "/v1/../metrics", answer{status: http.StatusMovedPermanently, location: "/metrics",
		contentType: "text/html; charset=utf-8", body: "<a href=\"/metrics\">Moved Permanently</a>.\n\n"})
	check("POST", "/v1/../metrics", answer{status: http.StatusMovedPermanently, location: "/metrics"})
	check("POST", "/v1//decide", answer{status: http.StatusMovedPermanently, location: "/v1/decide"})
}
