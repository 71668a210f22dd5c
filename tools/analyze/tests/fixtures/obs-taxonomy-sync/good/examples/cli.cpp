namespace obs { struct Span { Span(int, const char*); }; }
void minimize(int session) { obs::Span span(session, "minimize"); }
