// Compiled by ctest, not linked into a test binary: an ObjectWriter key
// is checked when it is compiled.  With none of the macros below the
// file compiles; with one, the compiler must refuse its key, naming
// detail::key_needs_escaping or printing "key is too long".
#include <string>

#include "obs/json.h"

void write_line(std::string& out) {
  pfair::obs::json::ObjectWriter w(out);
  w.field_bool("plain_key", true);
#if defined(PFAIR_KEY_QUOTE)
  w.field_bool("quo\"te", true);
#elif defined(PFAIR_KEY_BACKSLASH)
  w.field_bool("back\\slash", true);
#elif defined(PFAIR_KEY_CONTROL)
  w.field_bool("tab\there", true);
#elif defined(PFAIR_KEY_TOO_LONG)
  w.field_bool("twenty_nine_characters_long__", true);
#endif
  w.finish();
}
