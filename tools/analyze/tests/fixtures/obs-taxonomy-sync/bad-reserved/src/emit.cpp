namespace obs { struct Span { Span(int, const char*); }; }
void emit(int session) {
  const char* metric = "engine.visited";
  obs::Span span(session, "probe");
  (void)metric;
}
