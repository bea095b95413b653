/* Native fast paths of parser.parse (tokenizer and tree builder) and of
 * extract.extract_spans (the span walk).
 *
 * build(html, pos, defer, tb) -> (token, pos)
 *
 * Starting at pos, tokenizes what the tokenizer of parser.parse accepts
 * on its strict path and inserts each token straight into the live
 * _TreeBuilder `tb`: it updates tb.stack, tb.afe, tb.mode, tb.html,
 * tb.head, tb.body and tb.doc.doctype, and reads tb.afe_dirty.  Tokens:
 * text runs up to a '<', _START_TAG_RE start tags and _END_TAG_RE end
 * tags (names lowercased and interned), plain <!--...--> comments and a
 * <!DOCTYPE ...>.  It does what the builder does while no recovery rule
 * fires:
 *   - the well-formed scaffold: the doctype and <html> before <html>,
 *     <head> before <head>, head elements and </head> in head, <body>
 *     after </head>, and the whitespace those modes drop or keep;
 *   - in body: text, ordinary, void and formatting start tags (the
 *     implied-end closers loop, the active-formatting entry), the
 *     table/cell markers, end tags that close the stack top, and
 *     non-formatting end tags below the top (end_tag's stack walk:
 *     misnested-end-tag and unmatched-end-tag errors through tb.error;
 *     </body> and </html> record their offsets and stay open);
 *   - raw text and RCDATA (parser._RAWTEXT_CLOSE tags) whenever the
 *     element it inserted stays on the stack top, with the case-
 *     insensitive close search of _RAWTEXT_CLOSE and textarea's
 *     leading-newline rule;
 *   - comments, appended to the stack top in every mode.
 * Attributes are parsed here as parser._parse_attrs does (values through
 * _decode_attr's attribute-context rule) and text and RCDATA character
 * references decoded as html.unescape does; the Python functions stay
 * the specification.  The first token that needs a Python rule is
 * returned, not inserted, as
 *   (0, text, start, end)
 *   (1, name, attrs, start, end, self_closing)
 *   (2, name, start, end)
 * with pos just past it: implied html/head/body, duplicate structural
 * tags, late head elements, foster-parented text, text while formatting
 * is dirty, <form>/<template>, a nested <a>, Noah's Ark, the adoption
 * agency, </p> with no open p, ...  (None, pos) stops at a '<' that only
 * parse's loop tokenizes: a comment closed abruptly, by '--!>' or by the
 * end of input, '<!' other than a plain comment or the first doctype
 * before <html>, '<?', a bare '<', end tags carrying junk, unterminated
 * tags and quotes, names of MAX_NAME or more characters, start tags whose
 * name is in the frozenset `defer`, and raw-text start tags that need a
 * rule.
 *
 * release(root) empties every child list under root (dom.release).
 *
 * extract(root, strip_tags, ad_tokens, normalize_ws, emit_links,
 * kind_by_tag) -> [(kind, text, media_ref, offset)] is the walk of
 * extract.extract_spans (before prune_links), span for span: the strip
 * test (strip_tags here; every nonempty class/id value goes to
 * extract._has_ad_token), media and link spans, kinded and plain block
 * flushes, the <pre> rule and the whitespace collapse of
 * " ".join(s.split()).  The Python loop stays the specification.  A tree
 * the parser does not build (a child that is not an Element or a
 * TextNode, a child list that is not a list, attrs that are not a dict, a
 * text that is not a str) raises TypeError.
 *
 * configure(**kw), called once at the end of parser.py, passes the node
 * and builder classes (their __slots__ offsets are read here from the
 * member descriptors), the node kinds, the insertion modes, the rule sets
 * and the character-reference tables, so tag names and entities live in
 * Python only; configure_extract(...), at the end of extract.py, passes
 * the walk's tag sets and _has_ad_token.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#ifndef Py_ALWAYS_INLINE
#define Py_ALWAYS_INLINE
#endif

#define MAX_NAME 256
#define MAX_ENTITY 32       /* html.unescape's {1,32} name run */

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

#if PY_VERSION_HEX < 0x030C0000
#define READY(s) PyUnicode_READY(s)
#else
#define READY(s) 0
#endif

/* set by configure() */
static PyTypeObject *Element, *TextNode, *Document, *Builder;
static Py_ssize_t n_kind, n_parent, n_index;            /* Node */
static Py_ssize_t e_tag, e_attrs, e_children, e_start, e_stag_end,
                  e_etag_start, e_end, e_implied;       /* Element */
static Py_ssize_t t_text, t_start, t_end;               /* TextNode */
static Py_ssize_t d_children, d_doctype;                /* Document */
static Py_ssize_t b_stack, b_afe, b_mode, b_afe_dirty, b_html, b_head,
                  b_body;                               /* _TreeBuilder */
static PyObject *k_element, *k_text, *k_whitespace, *k_comment, *afe_marker;
static PyObject *s_void, *closed_by, *s_closer, *s_formatting, *s_markers,
                *s_scaffold, *s_rule_tags, *s_pre, *s_no_nest, *s_head,
                *s_raw, *s_rcdata;
static PyObject *entities, *invalid_charrefs, *invalid_codepoints, *modes;
static long before_html, before_head, in_head, after_head, in_body;
static int configured;
/* interned at module init */
static PyObject *str_empty, *str_html, *str_head, *str_body, *str_p, *str_textarea,
                *str_error, *str_lower, *str_misnested, *str_unmatched,
                *str_eof_rawtext, *str_comment_close, *str_comment_bang;

/* -- tokenizer: the only code that reads characters per kind -- */

struct tag {
    int end_tag, slash;
    Py_ssize_t attrs_start, attrs_end;  /* raw attribute text */
    Py_ssize_t end;                     /* one past '>' */
    Py_ssize_t name_len;
    char name[MAX_NAME];                /* lowercased */
};

static inline int
is_alpha(Py_UCS4 c)
{
    return (c | 0x20) >= 'a' && (c | 0x20) <= 'z';
}

static inline int
is_digit(Py_UCS4 c)
{
    return c >= '0' && c <= '9';
}

static inline int
is_name(Py_UCS4 c)          /* [a-zA-Z0-9:_-] */
{
    return is_alpha(c) || is_digit(c) || c == ':' || c == '_' || c == '-';
}

#define READ(i) PyUnicode_READ(kind, d, (i))

/* 1 if the '<' at lt opens a tag the strict regexes accept (filled into
 * t), 0 if parse's loop must tokenize it */
static inline Py_ALWAYS_INLINE int
lex_kind(const int kind, const void *d, Py_ssize_t n, Py_ssize_t lt,
         struct tag *t)
{
    Py_UCS4 c = READ(lt + 1);
    t->end_tag = c == '/';
    Py_ssize_t a = lt + 1 + t->end_tag, p = a;
    if (!is_alpha(READ(a)))
        return 0;
    while (p < n && is_name(READ(p)))
        p++;
    if (p - a >= MAX_NAME)
        return 0;
    for (Py_ssize_t i = a; i < p; i++) {
        c = READ(i);
        t->name[i - a] = (char)(c <= 'Z' ? c | 0x20 : c);
    }
    t->name_len = p - a;
    t->attrs_start = p;
    t->slash = 0;
    if (t->end_tag) {           /* </name\s*> */
        while (p < n && Py_UNICODE_ISSPACE(READ(p)))
            p++;
        if (p >= n || READ(p) != '>')
            return 0;
    }
    else {                      /* first '>' outside quotes */
        for (; p < n; p++) {
            c = READ(p);
            if (c == '>' || (c == '/' && p + 1 < n && READ(p + 1) == '>'))
                break;
            if (c == '"' || c == '\'') {
                do
                    p++;
                while (p < n && READ(p) != c);
                if (p >= n)     /* unterminated quote */
                    return 0;
            }
        }
        if (p >= n)
            return 0;
        t->slash = READ(p) == '/';
    }
    t->attrs_end = p;
    t->end = p + t->slash + 1;
    return 1;
}

static int
lex(PyObject *s, Py_ssize_t lt, struct tag *t)
{
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    switch (PyUnicode_KIND(s)) {
    case PyUnicode_1BYTE_KIND:
        return lex_kind(PyUnicode_1BYTE_KIND, d, n, lt, t);
    case PyUnicode_2BYTE_KIND:
        return lex_kind(PyUnicode_2BYTE_KIND, d, n, lt, t);
    default:
        return lex_kind(PyUnicode_4BYTE_KIND, d, n, lt, t);
    }
}

/* a run made only of HTML whitespace: TAB, LF, FF, CR, SPACE */
static int
is_ws_run(PyObject *s, Py_ssize_t a, Py_ssize_t b)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    for (; a < b; a++) {
        Py_UCS4 c = READ(a);
        if (c != ' ' && c != '\t' && c != '\n' && c != '\f' && c != '\r')
            return 0;
    }
    return 1;
}

/* s[at:] starts with the ASCII text lit; ci: ASCII case-insensitively */
static int
starts(PyObject *s, Py_ssize_t at, const char *lit, int ci)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    for (; *lit; lit++, at++) {
        if (at >= n)
            return 0;
        Py_UCS4 c = READ(at);
        if (ci && c < 128 && is_alpha(c))
            c |= 0x20;
        if (c != (Py_UCS4)*lit)
            return 0;
    }
    return 1;
}

/* c matches the lowercase ASCII letter `low` under re.IGNORECASE: its
 * two ASCII cases, and the non-ASCII letters Unicode case folding maps
 * onto i, k and s */
static inline int
ci_letter(Py_UCS4 c, char low)
{
    if (c < 128)
        return (c | 0x20) == (Py_UCS4)low;
    return (low == 'i' && (c == 0x130 || c == 0x131))
           || (low == 'k' && c == 0x212A) || (low == 's' && c == 0x17F);
}

/* parser._RAWTEXT_CLOSE[name].search(s, pos).start(): the first "</name"
 * (case-insensitive) followed by whitespace, '/' or '>'; -1 if none, -2
 * on error */
static Py_ssize_t
rawtext_close(PyObject *s, Py_ssize_t pos, const struct tag *t)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    for (Py_ssize_t p = pos;; p++) {
        p = PyUnicode_FindChar(s, '<', p, n, 1);
        if (p < 0)
            return p;
        if (p + 2 + t->name_len >= n)   /* no room for the lookahead */
            return -1;
        if (READ(p + 1) != '/')
            continue;
        Py_ssize_t i = 0;
        while (i < t->name_len && ci_letter(READ(p + 2 + i), t->name[i]))
            i++;
        if (i < t->name_len)
            continue;
        Py_UCS4 c = READ(p + 2 + i);
        if (c == '/' || c == '>' || Py_UNICODE_ISSPACE(c))
            return p;
    }
}

/* -- character references -- */

/* the decoded text.  It is never longer than its source, so a buffer of
 * the source's length holds it; it starts at the source's character
 * width and widens when a decoded character needs it.  After a failed
 * allocation (failed, with the exception set) every put is a no-op. */
struct out {
    void *buf;
    int kind, failed;
    Py_ssize_t n, cap;
};

static void
put(struct out *o, Py_UCS4 c)
{
    if (o->failed)
        return;
    Py_UCS4 max = o->kind == PyUnicode_1BYTE_KIND ? 0xFF
                  : o->kind == PyUnicode_2BYTE_KIND ? 0xFFFF : 0x10FFFF;
    if (c > max) {
        int kind = c > 0xFFFF ? PyUnicode_4BYTE_KIND : PyUnicode_2BYTE_KIND;
        void *wide = PyMem_Malloc(o->cap * kind);
        if (wide == NULL) {
            PyErr_NoMemory();
            o->failed = 1;
            return;
        }
        for (Py_ssize_t i = 0; i < o->n; i++)
            PyUnicode_WRITE(kind, wide, i, PyUnicode_READ(o->kind, o->buf, i));
        PyMem_Free(o->buf);
        o->buf = wide;
        o->kind = kind;
    }
    PyUnicode_WRITE(o->kind, o->buf, o->n++, c);
}

static void
put_str(struct out *o, PyObject *v)
{
    for (Py_ssize_t i = 0, k = PyUnicode_GET_LENGTH(v); i < k; i++)
        put(o, PyUnicode_READ_CHAR(v, i));
}

/* s[a:z], never wider than o (o starts at s's width) */
static void
put_range(struct out *o, PyObject *s, Py_ssize_t a, Py_ssize_t z)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    if (o->failed || a >= z)
        return;
    if (kind == o->kind)
        memcpy((char *)o->buf + o->n * kind, (const char *)d + a * kind,
               (z - a) * kind);
    else
        for (Py_ssize_t i = a; i < z; i++)
            PyUnicode_WRITE(o->kind, o->buf, o->n + i - a, READ(i));
    o->n += z - a;
}

/* the numeric reference whose '#' is at p (html.unescape's
 * #[0-9]+;? | #[xX][0-9a-fA-F]+;?), written to o: its end, 0 if the
 * text there is no numeric reference, -1 on error */
static Py_ssize_t
numeric_ref(PyObject *s, Py_ssize_t p, Py_ssize_t z, struct out *o)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t q = p + 1;
    int hex = q < z && (READ(q) | 0x20) == 'x';
    long num = 0;
    q += hex;
    Py_ssize_t first = q;
    for (; q < z; q++) {
        Py_UCS4 c = READ(q);
        int v = is_digit(c) ? (int)(c - '0')
                : hex && (c | 0x20) >= 'a' && (c | 0x20) <= 'f'
                ? (int)((c | 0x20) - 'a' + 10) : -1;
        if (v < 0)
            break;
        if (num <= 0x10FFFF)            /* past it, the value is moot */
            num = num * (hex ? 16 : 10) + v;
    }
    if (q == first)
        return 0;
    q += q < z && READ(q) == ';';
    if (num < 0xA0 || (num >= 0xD800 && num <= 0xDFFF) || num >= 0xFDD0) {
        PyObject *key = PyLong_FromLong(num);
        if (key == NULL)
            return -1;
        PyObject *v = PyDict_GetItemWithError(invalid_charrefs, key);
        int bad = v == NULL && !PyErr_Occurred()
                  ? PySet_Contains(invalid_codepoints, key) : 0;
        Py_DECREF(key);
        if (bad < 0 || PyErr_Occurred())
            return -1;
        if (v != NULL) {
            put_str(o, v);
            return q;
        }
        if ((num >= 0xD800 && num <= 0xDFFF) || num > 0x10FFFF) {
            put(o, 0xFFFD);
            return q;
        }
        if (bad)
            return q;
    }
    put(o, (Py_UCS4)num);
    return q;
}


/* entities.get(s[a:a+len] + (";" if semi else "")), s[a:a+len] ASCII;
 * borrowed, NULL if absent or on error */
static PyObject *
entity(PyObject *s, Py_ssize_t a, Py_ssize_t len, int semi)
{
    char key[MAX_ENTITY + 1];
    for (Py_ssize_t i = 0; i < len; i++)
        key[i] = (char)PyUnicode_READ_CHAR(s, a + i);
    if (semi)
        key[len++] = ';';
    PyObject *k = PyUnicode_FromStringAndSize(key, len);
    if (k == NULL)
        return NULL;
    PyObject *v = PyDict_GetItemWithError(entities, k);
    Py_DECREF(k);
    return v;
}

static inline int
is_ascii_alnum(Py_UCS4 c)
{
    return c < 128 && (is_alpha(c) || is_digit(c));
}

/* the named reference after the '&' at amp, read as html.unescape does
 * (attr=0) or as parser._decode_attr does (attr=1), written to o: its
 * end, 0 to keep the '&' literal, -1 on error.  Entity names are ASCII
 * letters and digits with an optional ';', so only the alphanumeric run
 * after '&', with one ';' after it, can spell one. */
static Py_ssize_t
named_ref(PyObject *s, Py_ssize_t amp, Py_ssize_t z, int attr, struct out *o)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t a = amp + 1, run = 0, k = 0;
    PyObject *v = NULL;
    while (a + run < z && run < MAX_ENTITY && is_ascii_alnum(READ(a + run)))
        run++;
    if (attr) {
        /* the longest key that prefixes raw[amp+1:amp+33]; a legacy key
         * (no ';') before an alphanumeric or '=' stays literal */
        int semi = run < MAX_ENTITY && a + run < z && READ(a + run) == ';';
        if (semi && (v = entity(s, a, run, 1)) != NULL)
            k = run + 1;
        for (Py_ssize_t x = run; v == NULL && !PyErr_Occurred() && x > 0; x--)
            if ((v = entity(s, a, x, 0)) != NULL)
                k = x;
        if (v == NULL)
            return PyErr_Occurred() ? -1 : 0;
        if (READ(a + k - 1) != ';' && a + k < z) {
            Py_UCS4 c = READ(a + k);
            if (c == '=' || Py_UNICODE_ISALNUM(c))
                return 0;
        }
        put_str(o, v);
        return a + k;
    }
    /* the match [^\t\n\f <&#;]{1,32};? (m), then the whole match as a
     * key, then its prefixes from len(m) - 1 down to 2 */
    Py_ssize_t len = 0;
    for (; a + len < z && len < MAX_ENTITY; len++) {
        Py_UCS4 c = READ(a + len);
        if (c == '\t' || c == '\n' || c == '\f' || c == ' ' || c == '<'
                || c == '&' || c == '#' || c == ';')
            break;
    }
    if (len == 0)
        return 0;
    Py_ssize_t m = len + (a + len < z && READ(a + len) == ';');
    if (run == len && (v = entity(s, a, len, m > len)) != NULL)
        k = m;
    for (Py_ssize_t x = Py_MIN(m - 1, run);
            v == NULL && !PyErr_Occurred() && x >= 2; x--)
        if ((v = entity(s, a, x, 0)) != NULL)
            k = x;
    if (PyErr_Occurred())
        return -1;
    if (v == NULL)
        put_range(o, s, amp, a + m);        /* '&' + m, unchanged */
    else {
        put_str(o, v);
        put_range(o, s, a + k, a + m);
    }
    return a + m;
}

/* s[a:z] with its character references decoded as html.unescape
 * (attr=0) or parser._decode_attr (attr=1) decodes them; a new
 * reference */
static PyObject *
unescape(PyObject *s, Py_ssize_t a, Py_ssize_t z, int attr)
{
    Py_ssize_t amp = PyUnicode_FindChar(s, '&', a, z, 1);
    if (amp < 0)
        return amp == -1 ? PyUnicode_Substring(s, a, z) : NULL;
    const int kind = PyUnicode_KIND(s);
    struct out o = {PyMem_Malloc((z - a) * kind), kind, 0, 0, z - a};
    if (o.buf == NULL)
        return PyErr_NoMemory();
    Py_ssize_t p = a;
    while (amp >= 0) {
        put_range(&o, s, p, amp);
        Py_ssize_t end = amp + 1 < z && PyUnicode_READ_CHAR(s, amp + 1) == '#'
                         ? numeric_ref(s, amp + 1, z, &o)
                         : named_ref(s, amp, z, attr, &o);
        if (end < 0)
            break;
        if (end == 0) {
            put(&o, '&');
            end = amp + 1;
        }
        p = end;
        amp = p < z ? PyUnicode_FindChar(s, '&', p, z, 1) : -1;
    }
    if (amp == -1)
        put_range(&o, s, p, z);
    PyObject *r = amp != -1 || o.failed ? NULL
                  : PyUnicode_FromKindAndData(o.kind, o.buf, o.n);
    PyMem_Free(o.buf);
    return r;
}

/* -- attributes: parser._parse_attrs -- */

static inline int
attr_stop(Py_UCS4 c)        /* not in _ATTR_RE's name class [^\s/>=] */
{
    return c == '/' || c == '>' || c == '=' || Py_UNICODE_ISSPACE(c);
}

/* s[a:z].lower(), interned when ASCII */
static PyObject *
attr_name(PyObject *s, Py_ssize_t a, Py_ssize_t z, int ascii)
{
    if (!ascii) {
        PyObject *raw = PyUnicode_Substring(s, a, z);
        PyObject *low = raw ? PyObject_CallMethodNoArgs(raw, str_lower) : NULL;
        Py_XDECREF(raw);
        return low;
    }
    PyObject *name = PyUnicode_New(z - a, 127);
    if (name == NULL)
        return NULL;
    Py_UCS1 *w = PyUnicode_1BYTE_DATA(name);
    for (Py_ssize_t i = a; i < z; i++) {
        Py_UCS4 c = PyUnicode_READ_CHAR(s, i);
        w[i - a] = (Py_UCS1)(c >= 'A' && c <= 'Z' ? c | 0x20 : c);
    }
    PyUnicode_InternInPlace(&name);
    return name;
}

/* the attributes of _ATTR_RE.finditer(s[a:z]), first occurrence
 * winning, each value stripped of its quotes and decoded in the
 * attribute context; a new dict */
static PyObject *
parse_attrs(PyObject *s, Py_ssize_t a, Py_ssize_t z)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    PyObject *attrs = PyDict_New();
    Py_ssize_t p = a;
    while (attrs != NULL && p < z) {
        if (attr_stop(READ(p))) {
            p++;
            continue;
        }
        Py_ssize_t name = p, v0 = -1, v1 = -1;
        int ascii = 1;
        for (; p < z && !attr_stop(READ(p)); p++)
            ascii &= READ(p) < 128;
        Py_ssize_t name_end = p, q = p;
        while (q < z && Py_UNICODE_ISSPACE(READ(q)))
            q++;
        if (q < z && READ(q) == '=') {      /* \s*=\s*(value) */
            q++;
            while (q < z && Py_UNICODE_ISSPACE(READ(q)))
                q++;
            Py_UCS4 c = q < z ? READ(q) : 0;
            Py_ssize_t close = c == '"' || c == '\''
                               ? PyUnicode_FindChar(s, c, q + 1, z, 1) : -1;
            if (close == -2)
                goto fail;
            if (close >= 0) {               /* "[^"]*" or '[^']*' */
                v0 = q + 1;
                v1 = close;
                p = close + 1;
            }
            else {                          /* [^\s>]* */
                v0 = q;
                while (q < z && READ(q) != '>' && !Py_UNICODE_ISSPACE(READ(q)))
                    q++;
                v1 = p = q;
            }
        }
        PyObject *key = attr_name(s, name, name_end, ascii);
        if (key == NULL)
            goto fail;
        int r = PyDict_Contains(attrs, key);
        if (r == 0) {
            PyObject *val = v0 < 0 ? Py_NewRef(str_empty)
                            : unescape(s, v0, v1, 1);
            r = val ? PyDict_SetItem(attrs, key, val) : -1;
            Py_XDECREF(val);
        }
        Py_DECREF(key);
        if (r < 0)
            goto fail;
    }
    return attrs;
fail:
    Py_DECREF(attrs);
    return NULL;
}

/* -- builder -- */

struct builder {
    PyObject *tb, *doc, *stack, *afe;           /* borrowed from tb */
    long mode;
    int afe_dirty;
};

/* has() and eq() leave a failure's exception set; build() checks for
 * one before it returns */
static inline int
has(PyObject *set, PyObject *key)
{
    return PySet_Contains(set, key) > 0;
}

static inline int
eq(PyObject *a, PyObject *b)
{
    return a == b || PyObject_RichCompareBool(a, b, Py_EQ) > 0;
}

static inline PyObject *
stack_top(struct builder *b)
{
    return PyList_GET_ITEM(b->stack, PyList_GET_SIZE(b->stack) - 1);
}

/* the stack top when it is an Element (the common case), else NULL */
static inline PyObject *
top_element(struct builder *b)
{
    PyObject *top = stack_top(b);
    return Py_IS_TYPE(top, Element) ? top : NULL;     /* never the Document */
}

static inline void
set_slot(PyObject *o, Py_ssize_t off, PyObject *v)    /* steals v */
{
    PyObject *old = SLOT(o, off);
    SLOT(o, off) = v;
    Py_XDECREF(old);
}

static int
set_mode(struct builder *b, long mode)
{
    PyObject *m = PyLong_FromLong(mode);
    if (m == NULL)
        return -1;
    set_slot(b->tb, b_mode, m);
    b->mode = mode;
    return 0;
}

/* tb.error(pos, code) */
static int
error(struct builder *b, Py_ssize_t pos, PyObject *code)
{
    PyObject *p = PyLong_FromSsize_t(pos);
    PyObject *r = p ? PyObject_CallMethodObjArgs(b->tb, str_error, p, code,
                                                 NULL) : NULL;
    Py_XDECREF(p);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

static PyObject *
children_of(PyObject *node)
{
    if (Py_IS_TYPE(node, Element))
        return SLOT(node, e_children);
    if (Py_IS_TYPE(node, Document))
        return SLOT(node, d_children);
    return NULL;
}

/* _TreeBuilder._append: node becomes the last child of the stack top */
static int
append(struct builder *b, PyObject *node)
{
    PyObject *parent = stack_top(b);
    PyObject *kids = children_of(parent);
    if (kids == NULL || !PyList_CheckExact(kids)) {
        PyErr_SetString(PyExc_TypeError, "stack top has no child list");
        return -1;
    }
    PyObject *index = PyLong_FromSsize_t(PyList_GET_SIZE(kids));
    if (index == NULL)
        return -1;
    Py_INCREF(parent);
    set_slot(node, n_parent, parent);
    set_slot(node, n_index, index);
    return PyList_Append(kids, node);
}

/* appends a new TextNode(kind, text, start, end) to the stack top;
 * steals text */
static int
append_text(struct builder *b, PyObject *kind, PyObject *text,
            Py_ssize_t start, Py_ssize_t end)
{
    PyObject *a = text ? PyLong_FromSsize_t(start) : NULL;
    PyObject *z = a ? PyLong_FromSsize_t(end) : NULL;
    PyObject *node = z ? TextNode->tp_alloc(TextNode, 0) : NULL;
    if (node == NULL) {
        Py_XDECREF(a);
        Py_XDECREF(z);
        Py_XDECREF(text);
        return -1;
    }
    Py_INCREF(kind);
    SLOT(node, n_kind) = kind;
    SLOT(node, t_text) = text;
    SLOT(node, t_start) = a;
    SLOT(node, t_end) = z;
    int r = append(b, node);
    Py_DECREF(node);
    return r;
}

/* Element(tag, attrs, start, start_tag_end); steals attrs */
static PyObject *
new_element(PyObject *tag, PyObject *attrs, Py_ssize_t start,
            Py_ssize_t start_tag_end)
{
    PyObject *a = PyLong_FromSsize_t(start);
    PyObject *z = PyLong_FromSsize_t(start_tag_end);
    PyObject *kids = PyList_New(0);
    PyObject *el = a && z && kids ? Element->tp_alloc(Element, 0) : NULL;
    if (el == NULL) {
        Py_XDECREF(a);
        Py_XDECREF(z);
        Py_XDECREF(kids);
        Py_DECREF(attrs);
        return NULL;
    }
    Py_INCREF(k_element);
    SLOT(el, n_kind) = k_element;
    Py_INCREF(tag);
    SLOT(el, e_tag) = tag;
    SLOT(el, e_attrs) = attrs;
    SLOT(el, e_children) = kids;
    SLOT(el, e_start) = a;
    Py_INCREF(z);
    Py_INCREF(z);
    SLOT(el, e_stag_end) = z;
    SLOT(el, e_etag_start) = z;
    SLOT(el, e_end) = z;
    Py_INCREF(Py_False);
    SLOT(el, e_implied) = Py_False;
    return el;
}

/* el.end_tag_start, el.end = start, end */
static int
set_end(PyObject *el, Py_ssize_t start, Py_ssize_t end)
{
    PyObject *a = PyLong_FromSsize_t(start);
    PyObject *z = a ? PyLong_FromSsize_t(end) : NULL;
    if (z == NULL) {
        Py_XDECREF(a);
        return -1;
    }
    set_slot(el, e_etag_start, a);
    set_slot(el, e_end, z);
    return 0;
}

/* el.end <= el.start_tag_end: no end tag has closed el yet */
static int
not_closed(PyObject *el)
{
    Py_ssize_t end = PyLong_AsSsize_t(SLOT(el, e_end));
    Py_ssize_t stag_end = PyLong_AsSsize_t(SLOT(el, e_stag_end));
    return PyErr_Occurred() ? -1 : end <= stag_end;
}

/* stack.pop() */
static int
drop_top(struct builder *b)
{
    Py_ssize_t n = PyList_GET_SIZE(b->stack);
    return PyList_SetSlice(b->stack, n - 1, n, NULL);
}

/* _TreeBuilder._pop: implied close of the stack top at pos */
static int
pop(struct builder *b, Py_ssize_t pos)
{
    PyObject *el = Py_NewRef(stack_top(b));
    int r = drop_top(b);
    if (r == 0 && has(s_formatting, SLOT(el, e_tag))) {
        Py_INCREF(Py_True);
        set_slot(b->tb, b_afe_dirty, Py_True);
        b->afe_dirty = 1;
    }
    if (r == 0 && (r = not_closed(el)) > 0)
        r = set_end(el, pos, pos);
    Py_DECREF(el);
    return r < 0 ? -1 : 0;
}

static int
afe_append(struct builder *b, PyObject *tag, PyObject *attrs, PyObject *el)
{
    PyObject *entry = PyList_New(3);
    if (entry == NULL)
        return -1;
    Py_INCREF(tag);
    Py_INCREF(attrs);
    Py_INCREF(el);
    PyList_SET_ITEM(entry, 0, tag);
    PyList_SET_ITEM(entry, 1, attrs);
    PyList_SET_ITEM(entry, 2, el);
    int r = PyList_Append(b->afe, entry);
    Py_DECREF(entry);
    return r;
}

/* 1 if a formatting start tag needs a Python rule: a nested <a>, or the
 * Noah's Ark clause (3 identical entries since the last marker) */
static int
afe_needs_rule(struct builder *b, PyObject *tag, PyObject *attrs)
{
    int count = 0, no_nest = has(s_no_nest, tag);
    for (Py_ssize_t i = PyList_GET_SIZE(b->afe) - 1; i >= 0; i--) {
        PyObject *e = PyList_GET_ITEM(b->afe, i);
        if (e == afe_marker)
            break;
        if (!PyList_CheckExact(e) || PyList_GET_SIZE(e) != 3)
            return 1;
        if (eq(PyList_GET_ITEM(e, 0), tag)) {
            if (no_nest)
                return 1;
            count += eq(PyList_GET_ITEM(e, 1), attrs);
        }
    }
    return count >= 3;
}

/* _TreeBuilder._afe_remove */
static int
afe_remove(struct builder *b, PyObject *el)
{
    for (Py_ssize_t i = PyList_GET_SIZE(b->afe) - 1; i >= 0; i--) {
        PyObject *e = PyList_GET_ITEM(b->afe, i);
        if (e != afe_marker && PyList_CheckExact(e) && PyList_GET_SIZE(e) == 3
                && PyList_GET_ITEM(e, 2) == el)
            return PyList_SetSlice(b->afe, i, i + 1, NULL);
    }
    return 0;
}

/* _TreeBuilder._afe_clear_to_marker */
static int
afe_clear_to_marker(struct builder *b)
{
    Py_ssize_t i = PyList_GET_SIZE(b->afe);
    while (i > 0 && PyList_GET_ITEM(b->afe, i - 1) != afe_marker)
        i--;
    return PyList_SetSlice(b->afe, i > 0 ? i - 1 : 0,
                           PyList_GET_SIZE(b->afe), NULL);
}

/* Each token handler returns 1 when it inserted the token, 0 when it
 * set *tok to the token for parse's Python rules, 2 when parse's loop
 * must tokenize it, -1 on error. */

static int
text(struct builder *b, PyObject *s, Py_ssize_t a, Py_ssize_t z,
     PyObject **tok)
{
    PyObject *top = stack_top(b);
    int el = Py_IS_TYPE(top, Element), ws = is_ws_run(s, a, z);
    long mode = b->mode;
    if (el && has(s_pre, SLOT(top, e_tag))
            && PyList_GET_SIZE(SLOT(top, e_children)) == 0)
        ;                                   /* the <pre> newline rule */
    else if (ws && (mode == before_html || mode == before_head
                    || mode == after_head))
        return 1;                           /* dropped */
    else if (ws ? mode == in_head || mode == in_body
             : mode == in_body && el && !b->afe_dirty
               && !has(s_scaffold, SLOT(top, e_tag)))
        return append_text(b, ws ? k_whitespace : k_text,
                           ws ? PyUnicode_Substring(s, a, z)
                           : unescape(s, a, z, 0), a, z) < 0 ? -1 : 1;
    *tok = Py_BuildValue("(iNnn)", 0, PyUnicode_Substring(s, a, z), a, z);
    return *tok ? 0 : -1;
}

/* parse's raw-text rule for el, just inserted at the stack top by the
 * start tag t: its text up to the close tag, then el is closed there */
static int
raw_text(struct builder *b, PyObject *s, PyObject *tag, const struct tag *t,
         PyObject *el, Py_ssize_t *next)
{
    Py_ssize_t n = PyUnicode_GET_LENGTH(s), pos = t->end, content_end;
    Py_ssize_t close = rawtext_close(s, pos, t), tag_end = n;
    if (close == -2)
        return -1;
    if (close >= 0) {
        content_end = close;
        Py_ssize_t gt = PyUnicode_FindChar(s, '>', close + 2 + t->name_len,
                                           n, 1);
        if (gt == -2)
            return -1;
        if (gt >= 0)
            tag_end = gt + 1;
    }
    else {
        content_end = n;
        if (error(b, pos, str_eof_rawtext) < 0)
            return -1;
    }
    if (tag == str_textarea && pos < content_end) {   /* leading newline */
        Py_UCS4 c = PyUnicode_READ_CHAR(s, pos);
        if (c == '\r' && pos + 1 < content_end
                && PyUnicode_READ_CHAR(s, pos + 1) == '\n')
            pos += 2;
        else if (c == '\n' || c == '\r')
            pos += 1;
    }
    if (pos < content_end
            && append_text(b, is_ws_run(s, pos, content_end) ? k_whitespace
                              : k_text,
                           has(s_rcdata, tag) ? unescape(s, pos, content_end, 0)
                           : PyUnicode_Substring(s, pos, content_end),
                           pos, content_end) < 0)
        return -1;
    if (drop_top(b) < 0 || set_end(el, content_end, tag_end) < 0)
        return -1;
    *next = tag_end;
    return 1;
}

/* <html>, <head> or <body> opening its mode's scaffold element: pushed,
 * stored in tb.<slot>, and the builder moves to mode */
static int
scaffold(struct builder *b, PyObject *tag, PyObject *attrs, Py_ssize_t lt,
         Py_ssize_t end, Py_ssize_t slot, long mode)
{
    Py_INCREF(attrs);
    PyObject *el = new_element(tag, attrs, lt, end);
    if (el == NULL || append(b, el) < 0 || PyList_Append(b->stack, el) < 0
            || set_mode(b, mode) < 0) {
        Py_XDECREF(el);
        return -1;
    }
    set_slot(b->tb, slot, el);
    return 1;
}

static int
start_tag(struct builder *b, PyObject *s, PyObject *tag, const struct tag *t,
          Py_ssize_t lt, Py_ssize_t *next, PyObject **tok)
{
    PyObject *attrs = t->attrs_end > t->attrs_start
                      ? parse_attrs(s, t->attrs_start, t->attrs_end)
                      : PyDict_New();
    if (attrs == NULL)
        return -1;
    long mode = b->mode;
    int r, fmt = has(s_formatting, tag), raw = has(s_raw, tag);
    if (mode == before_html && tag == str_html)
        r = scaffold(b, tag, attrs, lt, t->end, b_html, before_head);
    else if (mode == before_head && tag == str_head)
        r = scaffold(b, tag, attrs, lt, t->end, b_head, in_head);
    else if (mode == after_head && tag == str_body)
        r = scaffold(b, tag, attrs, lt, t->end, b_body, in_body);
    /* formatting tags are in no closer set, so these tests see the
     * state the closers loop below would leave */
    else if ((mode != in_body && !(mode == in_head && has(s_head, tag)))
             || top_element(b) == NULL || has(s_rule_tags, tag)
             || (t->slash && !has(s_void, tag))
             || (fmt && (b->afe_dirty || afe_needs_rule(b, tag, attrs))))
        r = raw ? 2 : 0;
    else
        r = 3;                              /* inserted below */
    if (r == 0)
        *tok = Py_BuildValue("(iOOnnO)", 1, tag, attrs, lt, t->end,
                             t->slash ? Py_True : Py_False);
    if (r != 3) {
        Py_DECREF(attrs);
        return r == 0 && *tok == NULL ? -1 : r;
    }
    if (has(s_closer, tag)) {
        for (;;) {
            PyObject *top = top_element(b);
            if (top == NULL)
                break;
            PyObject *closers = PyDict_GetItemWithError(closed_by,
                                                        SLOT(top, e_tag));
            if (closers == NULL) {
                if (PyErr_Occurred())
                    goto fail;
                break;
            }
            if (!has(closers, tag))
                break;
            if (pop(b, lt) < 0)
                goto fail;
        }
    }
    Py_INCREF(attrs);
    PyObject *el = new_element(tag, attrs, lt, t->end);
    if (el == NULL || append(b, el) < 0)
        goto fail_el;
    if (fmt) {
        if (PyList_Append(b->stack, el) < 0
                || afe_append(b, tag, attrs, el) < 0)
            goto fail_el;
    }
    else if (!has(s_void, tag)) {
        if (PyList_Append(b->stack, el) < 0
                || (has(s_markers, tag)
                    && PyList_Append(b->afe, afe_marker) < 0))
            goto fail_el;
    }
    r = raw ? raw_text(b, s, tag, t, el, next) : 1;
    Py_DECREF(el);
    Py_DECREF(attrs);
    return r;
fail_el:
    Py_XDECREF(el);
fail:
    Py_DECREF(attrs);
    return -1;
}

/* end_tag's stack walk in body: close the nearest open element named
 * tag, and every element above it; a tag with no open element is an
 * error.  Hands the token back when the stack holds a non-Element. */
static int
close_to(struct builder *b, PyObject *tag, Py_ssize_t lt, Py_ssize_t end,
         PyObject **tok)
{
    Py_ssize_t i = PyList_GET_SIZE(b->stack) - 1;
    for (; i > 0; i--) {
        PyObject *node = PyList_GET_ITEM(b->stack, i);
        if (!Py_IS_TYPE(node, Element)) {
            *tok = Py_BuildValue("(iOnn)", 2, tag, lt, end);
            return *tok ? 0 : -1;
        }
        if (eq(SLOT(node, e_tag), tag))
            break;
    }
    if (i == 0)
        return error(b, lt, str_unmatched) < 0 ? -1 : 1;
    while (PyList_GET_SIZE(b->stack) - 1 > i) {
        int open = not_closed(stack_top(b));
        if (open < 0 || (open && error(b, lt, str_misnested) < 0)
                || pop(b, lt) < 0)
            return -1;
    }
    PyObject *el = Py_NewRef(stack_top(b));
    int r = drop_top(b) < 0 || set_end(el, lt, end) < 0 ? -1 : 0;
    if (r == 0 && has(s_markers, SLOT(el, e_tag)))
        r = afe_clear_to_marker(b);
    /* body and html stay insertable after their end tag */
    if (r == 0 && (el == SLOT(b->tb, b_body) || el == SLOT(b->tb, b_html)))
        r = PyList_Append(b->stack, el);
    Py_DECREF(el);
    return r < 0 ? -1 : 1;
}

static int
end_tag(struct builder *b, PyObject *tag, Py_ssize_t lt, Py_ssize_t end,
        PyObject **tok)
{
    PyObject *top = top_element(b);
    if (top != NULL && b->mode == in_head && tag == str_head
            && top == SLOT(b->tb, b_head)) {
        if (drop_top(b) < 0 || set_end(top, lt, end) < 0
                || set_mode(b, after_head) < 0)
            return -1;
        return 1;
    }
    if (top == NULL || b->mode != in_body)
        goto hand_back;
    if (top != SLOT(b->tb, b_body) && top != SLOT(b->tb, b_html)
            && eq(SLOT(top, e_tag), tag)) {         /* closes the top */
        Py_INCREF(top);
        int r = drop_top(b) < 0 || set_end(top, lt, end) < 0 ? -1 : 0;
        if (r == 0 && has(s_formatting, tag))
            r = afe_remove(b, top);
        else if (r == 0 && has(s_markers, tag))
            r = afe_clear_to_marker(b);
        Py_DECREF(top);
        return r < 0 ? -1 : 1;
    }
    if (has(s_formatting, tag))
        goto hand_back;                     /* the adoption agency */
    if (tag == str_p) {             /* </p> with no open p: Python's rule */
        Py_ssize_t i = PyList_GET_SIZE(b->stack) - 1;
        while (i > 0 && !(Py_IS_TYPE(PyList_GET_ITEM(b->stack, i), Element)
                          && eq(SLOT(PyList_GET_ITEM(b->stack, i), e_tag),
                                tag)))
            i--;
        if (i == 0)
            goto hand_back;
    }
    return close_to(b, tag, lt, end, tok);
hand_back:
    *tok = Py_BuildValue("(iOnn)", 2, tag, lt, end);
    return *tok ? 0 : -1;
}

/* '<!' at lt: a plain comment (any mode), or the doctype before <html>
 * when none is set; 2 for everything else */
static int
markup_decl(struct builder *b, PyObject *s, Py_ssize_t lt, Py_ssize_t *next)
{
    Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    if (starts(s, lt, "<!--", 0)) {
        Py_ssize_t a = lt + 4;
        if (starts(s, a, ">", 0) || starts(s, a, "->", 0))
            return 2;                       /* abrupt: <!--> and <!---> */
        Py_ssize_t close = PyUnicode_Find(s, str_comment_close, a, n, 1);
        /* a '--!>' before the '-->' ends the comment there */
        Py_ssize_t bang = close < 0 ? close
                          : PyUnicode_Find(s, str_comment_bang, a, close + 3, 1);
        if (close == -2 || bang == -2)
            return -1;
        if (close < 0 || bang >= 0)
            return 2;
        if (append_text(b, k_comment, PyUnicode_Substring(s, a, close), lt,
                        close + 3) < 0)
            return -1;
        *next = close + 3;
        return 1;
    }
    if (b->mode != before_html || !starts(s, lt + 2, "doctype", 1))
        return 2;
    Py_ssize_t gt = PyUnicode_FindChar(s, '>', lt, n, 1);
    if (gt == -2)
        return -1;
    int set = gt < 0 ? 1 : PyObject_IsTrue(SLOT(b->doc, d_doctype));
    if (set != 0)                           /* set: a duplicate-doctype */
        return set < 0 ? -1 : 2;
    Py_ssize_t a = lt + 9, z = gt;          /* body[7:].strip() */
    while (a < z && Py_UNICODE_ISSPACE(PyUnicode_READ_CHAR(s, a)))
        a++;
    while (z > a && Py_UNICODE_ISSPACE(PyUnicode_READ_CHAR(s, z - 1)))
        z--;
    PyObject *doctype = PyUnicode_Substring(s, a, z);
    if (doctype == NULL)
        return -1;
    set_slot(b->doc, d_doctype, doctype);
    *next = gt + 1;
    return 1;
}

static PyObject *
build(PyObject *self, PyObject *args)
{
    PyObject *s, *defer, *tb, *tok = NULL;
    Py_ssize_t pos;
    if (!PyArg_ParseTuple(args, "UnO!O:build", &s, &pos, &PyFrozenSet_Type,
                          &defer, &tb))
        return NULL;
    if (!configured || !Py_IS_TYPE(tb, Builder)) {
        PyErr_SetString(PyExc_TypeError, "build needs a configured builder");
        return NULL;
    }
    if (READY(s) < 0)
        return NULL;
    const Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    if (pos < 0 || pos > n) {
        PyErr_SetString(PyExc_ValueError, "pos out of range");
        return NULL;
    }
    struct builder b = {tb, NULL, SLOT(tb, b_stack), SLOT(tb, b_afe), 0, 0};
    PyObject *mode = SLOT(tb, b_mode), *dirty = SLOT(tb, b_afe_dirty);
    /* stack[0] is the Document, which is never popped here */
    if (!b.stack || !PyList_CheckExact(b.stack) || !PyList_GET_SIZE(b.stack)
            || !Py_IS_TYPE(PyList_GET_ITEM(b.stack, 0), Document)
            || !b.afe || !PyList_CheckExact(b.afe) || !mode || !dirty
            || !SLOT(PyList_GET_ITEM(b.stack, 0), d_doctype)) {
        PyErr_SetString(PyExc_TypeError, "malformed builder state");
        return NULL;
    }
    b.doc = PyList_GET_ITEM(b.stack, 0);
    b.mode = PyLong_AsLong(mode);
    b.afe_dirty = PyObject_IsTrue(dirty);
    if (PyErr_Occurred())
        return NULL;
    while (pos < n) {
        Py_ssize_t lt = PyUnicode_FindChar(s, '<', pos, n, 1);
        if (lt == -2)
            return NULL;
        if (lt == -1)
            lt = n;
        if (lt > pos) {
            int r = text(&b, s, pos, lt, &tok);
            if (r < 0)
                return NULL;
            pos = lt;
            if (r == 0)
                goto token;
        }
        if (lt + 2 >= n)            /* EOF, or a '<' in the last two */
            break;
        int r;
        Py_ssize_t next = lt;
        struct tag t;
        if (PyUnicode_READ_CHAR(s, lt + 1) == '!')
            r = markup_decl(&b, s, lt, &next);
        else if (!lex(s, lt, &t))
            r = 2;
        else {
            PyObject *tag = PyUnicode_FromStringAndSize(t.name, t.name_len);
            if (tag == NULL)
                return NULL;
            PyUnicode_InternInPlace(&tag);
            next = t.end;
            if (t.end_tag)
                r = end_tag(&b, tag, lt, t.end, &tok);
            else if ((r = PySet_Contains(defer, tag)) == 0)
                r = start_tag(&b, s, tag, &t, lt, &next, &tok);
            else if (r > 0)         /* deferred: parse's loop takes it */
                r = 2;
            Py_DECREF(tag);
        }
        if (r < 0)
            return NULL;
        if (r == 2)
            break;
        pos = next;
        if (r == 0)
            goto token;
    }
    tok = Py_None;
    Py_INCREF(tok);
token:
    if (PyErr_Occurred()) {     /* a set or equality test that failed */
        Py_DECREF(tok);
        return NULL;
    }
    return Py_BuildValue("(Nn)", tok, pos);
}

/* dom.release: empty every child list under root, root's own included */
static PyObject *
release(PyObject *self, PyObject *root)
{
    Py_ssize_t cap = 256, n = 0;
    PyObject **todo = PyMem_New(PyObject *, cap);
    int err = 0;
    if (todo == NULL)
        return PyErr_NoMemory();
    Py_INCREF(root);
    todo[n++] = root;
    while (n > 0) {         /* after an error, only drops what it holds */
        PyObject *node = todo[--n], *kids = NULL;
        if (Py_IS_TYPE(node, TextNode))
            ;                           /* leaves share one empty () */
        else if ((kids = children_of(node)) != NULL)
            Py_INCREF(kids);
        else if (!err)
            err = (kids = PyObject_GetAttrString(node, "_children")) == NULL;
        Py_ssize_t k = !err && kids && PyList_Check(kids)
                       ? PyList_GET_SIZE(kids) : 0;
        if (k > 0 && n + k > cap) {
            PyObject **grown = PyMem_Resize(todo, PyObject *, 2 * (n + k));
            if (grown == NULL) {
                PyErr_NoMemory();
                err = 1;
                k = 0;
            }
            else {
                todo = grown;
                cap = 2 * (n + k);
            }
        }
        if (k > 0) {
            for (Py_ssize_t i = 0; i < k; i++) {
                todo[n + i] = PyList_GET_ITEM(kids, i);
                Py_INCREF(todo[n + i]);
            }
            n += k;
            err = PyList_SetSlice(kids, 0, k, NULL) < 0;
        }
        Py_XDECREF(kids);
        Py_DECREF(node);
    }
    PyMem_Free(todo);
    if (err)
        return NULL;
    Py_RETURN_NONE;
}

/* -- span extraction: the walk of extract.extract_spans -- */

/* set by configure_extract() */
static PyObject *s_media, *s_blocks, *has_ad_token;
static int extract_configured;
/* interned at module init */
static PyObject *str_space, *str_text, *str_code, *str_media,
                *str_link, *str_a, *str_class, *str_id, *str_src,
                *str_data_src, *str_href;

enum close { CLOSE_INLINE, CLOSE_BLOCK, CLOSE_KIND };

struct frame {
    PyObject *kids;         /* the child list being walked (strong) */
    Py_ssize_t i;           /* its next child */
    enum close close;
    PyObject *kind;         /* CLOSE_KIND: the block's kind (strong) */
    PyObject *outer;        /* CLOSE_KIND: the kind around the block */
};

struct walk {
    PyObject *strip, *ad_tokens, *kind_by_tag, *spans;
    int normalize, links;
    struct frame *frames;
    Py_ssize_t nframes, cap;
    PyObject **buf;         /* text pieces of the open span (strong) */
    Py_ssize_t nbuf, bufcap;
    PyObject *kind;         /* innermost block kind (borrowed) */
};

/* pushes a frame over `kids`, which must be a list */
static int
push_frame(struct walk *w, PyObject *kids, enum close close, PyObject *kind)
{
    if (kids == NULL || !PyList_Check(kids)) {
        PyErr_SetString(PyExc_TypeError, "_children is not a list");
        return -1;
    }
    if (w->nframes == w->cap) {
        Py_ssize_t cap = w->cap ? 2 * w->cap : 64;
        struct frame *grown = PyMem_Resize(w->frames, struct frame, cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->frames = grown;
        w->cap = cap;
    }
    struct frame *f = &w->frames[w->nframes++];
    Py_INCREF(kids);
    Py_XINCREF(kind);
    *f = (struct frame){kids, 0, close, kind, w->kind};
    if (close == CLOSE_KIND)
        w->kind = kind;
    return 0;
}

static void
pop_frame(struct walk *w)
{
    struct frame *f = &w->frames[--w->nframes];
    if (f->close == CLOSE_KIND)
        w->kind = f->outer;
    Py_DECREF(f->kids);
    Py_XDECREF(f->kind);
}

static int
no_slot(const char *name)
{
    PyErr_Format(PyExc_TypeError, "%s is not set", name);
    return -1;
}

static int
buf_add(struct walk *w, PyObject *text)
{
    if (text == NULL || !PyUnicode_Check(text)) {
        PyErr_SetString(PyExc_TypeError, "TextNode.text is not a str");
        return -1;
    }
    if (READY(text) < 0)
        return -1;
    if (w->nbuf == w->bufcap) {
        Py_ssize_t cap = w->bufcap ? 2 * w->bufcap : 64;
        PyObject **grown = PyMem_Resize(w->buf, PyObject *, cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->buf = grown;
        w->bufcap = cap;
    }
    Py_INCREF(text);
    w->buf[w->nbuf++] = text;
    return 0;
}

static void
buf_clear(struct walk *w)
{
    while (w->nbuf > 0)
        Py_DECREF(w->buf[--w->nbuf]);
}

/* "".join(buf) */
static PyObject *
buf_join(struct walk *w)
{
    if (w->nbuf == 1) {
        Py_INCREF(w->buf[0]);
        return w->buf[0];
    }
    Py_ssize_t len = 0;
    Py_UCS4 maxc = 0;
    for (Py_ssize_t i = 0; i < w->nbuf; i++) {
        len += PyUnicode_GET_LENGTH(w->buf[i]);
        maxc = Py_MAX(maxc, PyUnicode_MAX_CHAR_VALUE(w->buf[i]));
    }
    PyObject *out = PyUnicode_New(len, maxc);
    for (Py_ssize_t i = 0, at = 0; out != NULL && i < w->nbuf; i++) {
        Py_ssize_t n = PyUnicode_GET_LENGTH(w->buf[i]);
        if (PyUnicode_CopyCharacters(out, at, w->buf[i], 0, n) < 0)
            Py_CLEAR(out);
        at += n;
    }
    return out;
}

/* " ".join("".join(buf).split()); when nothing collapses, the pieces
 * are only joined (one piece is returned as it is) */
static PyObject *
buf_collapse(struct walk *w)
{
    Py_ssize_t len = 0;
    Py_UCS4 maxc = 0;
    int gap = 0, same = 1;  /* a space is due; the output is the input */
    for (Py_ssize_t p = 0; p < w->nbuf; p++) {
        PyObject *s = w->buf[p];
        const int kind = PyUnicode_KIND(s);
        const void *d = PyUnicode_DATA(s);
        for (Py_ssize_t i = 0, n = PyUnicode_GET_LENGTH(s); i < n; i++) {
            Py_UCS4 c = READ(i);
            if (Py_UNICODE_ISSPACE(c)) {
                if (c != ' ' || gap || len == 0)
                    same = 0;
                gap = len > 0;
                continue;
            }
            if (gap) {
                len++;
                maxc = Py_MAX(maxc, ' ');
                gap = 0;
            }
            len++;
            maxc = Py_MAX(maxc, c);
        }
    }
    if (same && !gap)
        return buf_join(w);
    PyObject *out = PyUnicode_New(len, maxc);
    if (out == NULL)
        return NULL;
    const int okind = PyUnicode_KIND(out);
    void *od = PyUnicode_DATA(out);
    Py_ssize_t j = 0;
    gap = 0;
    for (Py_ssize_t p = 0; p < w->nbuf; p++) {
        PyObject *s = w->buf[p];
        const int kind = PyUnicode_KIND(s);
        const void *d = PyUnicode_DATA(s);
        for (Py_ssize_t i = 0, n = PyUnicode_GET_LENGTH(s); i < n; i++) {
            Py_UCS4 c = READ(i);
            if (Py_UNICODE_ISSPACE(c)) {
                gap = j > 0;
                continue;
            }
            if (gap) {
                PyUnicode_WRITE(okind, od, j++, ' ');
                gap = 0;
            }
            PyUnicode_WRITE(okind, od, j++, c);
        }
    }
    return out;
}

/* "".join(buf).strip("\n").rstrip() */
static PyObject *
buf_code(struct walk *w)
{
    PyObject *s = buf_join(w);
    if (s == NULL)
        return NULL;
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t a = 0, z = PyUnicode_GET_LENGTH(s);
    while (a < z && READ(a) == '\n')
        a++;
    while (z > a && Py_UNICODE_ISSPACE(READ(z - 1)))
        z--;
    if (a == 0 && z == PyUnicode_GET_LENGTH(s))
        return s;
    PyObject *out = PyUnicode_Substring(s, a, z);
    Py_DECREF(s);
    return out;
}

/* spans.append((kind, text, ref, len(spans))) */
static int
emit(struct walk *w, PyObject *kind, PyObject *text, PyObject *ref)
{
    PyObject *off = PyLong_FromSsize_t(PyList_GET_SIZE(w->spans));
    PyObject *span = off ? PyTuple_Pack(4, kind, text, ref, off) : NULL;
    Py_XDECREF(off);
    int r = span ? PyList_Append(w->spans, span) : -1;
    Py_XDECREF(span);
    return r;
}

/* the text span of buf, as extract_spans's flush(kind) */
static int
flush(struct walk *w, PyObject *kind)
{
    int code = PyObject_RichCompareBool(kind, str_code, Py_EQ);
    PyObject *text = code < 0 ? NULL
                     : !w->normalize ? buf_join(w)
                     : code ? buf_code(w) : buf_collapse(w);
    buf_clear(w);
    if (text == NULL)
        return -1;
    int r = 0, keep = PyUnicode_GET_LENGTH(text) > 0;
    if (keep && code) {         /* a whitespace-only code block is dropped */
        const int k = PyUnicode_KIND(text);
        const void *d = PyUnicode_DATA(text);
        Py_ssize_t i = 0, n = PyUnicode_GET_LENGTH(text);
        while (i < n && Py_UNICODE_ISSPACE(PyUnicode_READ(k, d, i)))
            i++;
        keep = i < n;
    }
    if (keep)
        r = emit(w, kind, text, str_empty);
    Py_DECREF(text);
    return r;
}

/* profile.is_stripped's class/id test of one attribute value */
static int
ad_value(struct walk *w, PyObject *v)
{
    int truth = PyObject_IsTrue(v);
    if (truth <= 0)
        return truth;
    PyObject *r = PyObject_CallFunctionObjArgs(has_ad_token, v, w->ad_tokens,
                                               NULL);
    if (r == NULL)
        return -1;
    truth = PyObject_IsTrue(r);
    Py_DECREF(r);
    return truth;
}

static int
is_stripped(struct walk *w, PyObject *tag, PyObject *attrs)
{
    int r = PySequence_Contains(w->strip, tag);
    if (r != 0 || PyDict_GET_SIZE(attrs) == 0)
        return r;
    PyObject *keys[] = {str_class, str_id};
    for (int i = 0; i < 2 && r == 0; i++) {
        PyObject *v = PyDict_GetItemWithError(attrs, keys[i]);
        if (v == NULL)
            r = PyErr_Occurred() ? -1 : 0;
        else {
            Py_INCREF(v);
            r = ad_value(w, v);
            Py_DECREF(v);
        }
    }
    return r;
}

/* attrs.get(key) when truthy (a new reference), else NULL; -1 on error */
static int
truthy_attr(PyObject *attrs, PyObject *key, PyObject **v)
{
    *v = PyDict_GetItemWithError(attrs, key);
    if (*v == NULL)
        return PyErr_Occurred() ? -1 : 0;
    Py_INCREF(*v);
    int truth = PyObject_IsTrue(*v);
    if (truth <= 0)
        Py_CLEAR(*v);
    return truth;
}

/* text.content_text(el, normalize_ws=normalize, include_comments=False):
 * every text, CDATA and whitespace leaf under el, stripped subtrees
 * included.  buf is empty on entry and on return. */
static PyObject *
link_text(struct walk *w, PyObject *el)
{
    Py_ssize_t base = w->nframes;
    if (push_frame(w, SLOT(el, e_children), CLOSE_INLINE, NULL) < 0)
        return NULL;
    while (w->nframes > base) {
        struct frame *f = &w->frames[w->nframes - 1];
        if (f->i >= PyList_GET_SIZE(f->kids)) {
            pop_frame(w);
            continue;
        }
        PyObject *node = PyList_GET_ITEM(f->kids, f->i++);
        int r = 0;
        Py_INCREF(node);
        if (Py_IS_TYPE(node, TextNode)) {
            PyObject *kind = SLOT(node, n_kind);
            r = kind == NULL ? no_slot("TextNode.kind")
                : PyObject_RichCompareBool(kind, k_comment, Py_EQ);
            if (r == 0)
                r = buf_add(w, SLOT(node, t_text));
        }
        else if (Py_IS_TYPE(node, Element)) {
            PyObject *kids = SLOT(node, e_children);
            if (kids == NULL || !PyList_Check(kids)
                    || PyList_GET_SIZE(kids) > 0)
                r = push_frame(w, kids, CLOSE_INLINE, NULL);
        }
        else {
            PyErr_SetString(PyExc_TypeError, "tree node is not an "
                            "Element or a TextNode");
            r = -1;
        }
        Py_DECREF(node);
        if (r < 0) {
            while (w->nframes > base)
                pop_frame(w);
            buf_clear(w);
            return NULL;
        }
    }
    PyObject *text = w->nbuf == 0 ? Py_NewRef(str_empty)
                     : w->normalize ? buf_collapse(w) : buf_join(w);
    buf_clear(w);
    return text;
}

/* one element of the walk: stripped, a media or link span, or entered */
static int
visit_element(struct walk *w, PyObject *el)
{
    PyObject *tag = SLOT(el, e_tag), *attrs = SLOT(el, e_attrs), *ref;
    if (tag == NULL || attrs == NULL || !PyDict_Check(attrs)) {
        PyErr_SetString(PyExc_TypeError,
                        "Element has no tag or its attrs is not a dict");
        return -1;
    }
    int r = is_stripped(w, tag, attrs);
    if (r != 0)
        return r < 0 ? -1 : 0;              /* subtree never entered */
    if ((r = PySet_Contains(s_media, tag)) != 0) {
        if (r < 0 || (w->nbuf && flush(w, w->kind) < 0))
            return -1;
        if (truthy_attr(attrs, str_src, &ref) < 0
                || (ref == NULL && truthy_attr(attrs, str_data_src, &ref) < 0))
            return -1;
        r = emit(w, str_media, str_empty, ref ? ref : str_empty);
        Py_XDECREF(ref);
        return r;
    }
    if (w->links && (r = PyObject_RichCompareBool(tag, str_a, Py_EQ)) > 0)
        r = PyDict_Contains(attrs, str_href);
    if (r < 0)
        return -1;
    if (r) {
        if (w->nbuf && flush(w, w->kind) < 0)
            return -1;
        PyObject *text = link_text(w, el);
        if (text == NULL)
            return -1;
        ref = PyDict_GetItemWithError(attrs, str_href);
        if (ref == NULL && !PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, str_href);
        r = ref ? emit(w, str_link, text, ref) : -1;
        Py_DECREF(text);
        return r;
    }
    PyObject *kids = SLOT(el, e_children);
    PyObject *kind = PyDict_GetItemWithError(w->kind_by_tag, tag);
    enum close close = CLOSE_INLINE;
    if (kind != NULL)
        close = CLOSE_KIND;
    else if (PyErr_Occurred() || (r = PySet_Contains(s_blocks, tag)) < 0)
        return -1;
    else if (r)
        close = CLOSE_BLOCK;
    Py_XINCREF(kind);
    if (close != CLOSE_INLINE && w->nbuf && flush(w, w->kind) < 0)
        r = -1;
    /* an empty block closes with nothing to flush */
    else if (kids != NULL && PyList_Check(kids) && PyList_GET_SIZE(kids) == 0)
        r = 0;
    else
        r = push_frame(w, kids, close, kind);
    Py_XDECREF(kind);
    return r;
}

static int
visit(struct walk *w, PyObject *node)
{
    if (Py_IS_TYPE(node, TextNode)) {
        PyObject *kind = SLOT(node, n_kind);
        if (kind == NULL)
            return no_slot("TextNode.kind");
        int r = PyObject_RichCompareBool(kind, k_text, Py_EQ);
        if (r != 0)
            return r < 0 ? -1 : buf_add(w, SLOT(node, t_text));
        if (w->nbuf == 0)           /* whitespace between blocks: dropped */
            return 0;
        r = PyObject_RichCompareBool(kind, k_whitespace, Py_EQ);
        if (r <= 0)
            return r;               /* comments, CDATA: never content */
        return buf_add(w, w->normalize ? str_space : SLOT(node, t_text));
    }
    if (Py_IS_TYPE(node, Element))
        return visit_element(w, node);
    PyErr_SetString(PyExc_TypeError,
                    "tree node is not an Element or a TextNode");
    return -1;
}

static PyObject *
extract(PyObject *self, PyObject *args)
{
    PyObject *root;
    struct walk w = {0};
    if (!PyArg_ParseTuple(args, "OOOppO!:extract", &root, &w.strip,
                          &w.ad_tokens, &w.normalize, &w.links, &PyDict_Type,
                          &w.kind_by_tag))
        return NULL;
    if (!configured || !extract_configured
            || !(Py_IS_TYPE(root, Document) || Py_IS_TYPE(root, Element))) {
        PyErr_SetString(PyExc_TypeError,
                        "extract needs a configured Document or Element");
        return NULL;
    }
    if ((w.spans = PyList_New(0)) == NULL)
        return NULL;
    w.kind = str_text;
    if (push_frame(&w, children_of(root), CLOSE_INLINE, NULL) < 0)
        goto fail;
    while (w.nframes > 0) {
        struct frame *f = &w.frames[w.nframes - 1];
        if (f->i < PyList_GET_SIZE(f->kids)) {
            PyObject *node = PyList_GET_ITEM(f->kids, f->i++);
            Py_INCREF(node);
            int r = visit(&w, node);
            Py_DECREF(node);
            if (r < 0)
                goto fail;
            continue;
        }
        /* the element of f ends: a block flushes its text with the
         * innermost kind (its own, for a kinded block), as the Python
         * walk's markers do */
        if (f->close != CLOSE_INLINE && w.nbuf && flush(&w, w.kind) < 0)
            goto fail;
        pop_frame(&w);
    }
    if (w.nbuf && flush(&w, w.kind) < 0)
        goto fail;
    PyMem_Free(w.frames);
    PyMem_Free(w.buf);
    return w.spans;
fail:
    while (w.nframes > 0)
        pop_frame(&w);
    buf_clear(&w);
    PyMem_Free(w.frames);
    PyMem_Free(w.buf);
    Py_DECREF(w.spans);
    return NULL;
}

/* -- configuration -- */

static int
slot_offset(PyTypeObject *type, const char *name, Py_ssize_t *off)
{
    PyObject *d = PyObject_GetAttrString((PyObject *)type, name);
    if (d == NULL)
        return -1;
    int ok = Py_IS_TYPE(d, &PyMemberDescr_Type)
             && ((PyMemberDescrObject *)d)->d_member->type == T_OBJECT_EX;
    if (ok)
        *off = ((PyMemberDescrObject *)d)->d_member->offset;
    else
        PyErr_Format(PyExc_TypeError, "%s.%s is not a __slots__ member",
                     type->tp_name, name);
    Py_DECREF(d);
    return ok ? 0 : -1;
}

struct setting {
    const char *name;
    PyObject **to;
    PyTypeObject *type;     /* exact type required, or NULL for any */
};

/* stores kw[name] for every setting, each type-checked first; kw must
 * hold exactly these names */
static int
store(PyObject *kw, struct setting *set, size_t n)
{
    if (kw == NULL || (size_t)PyDict_GET_SIZE(kw) != n) {
        PyErr_Format(PyExc_TypeError, "configure takes %zu keywords", n);
        return -1;
    }
    for (size_t i = 0; i < n; i++) {
        PyObject *v = PyDict_GetItemString(kw, set[i].name);
        if (v == NULL || (set[i].type && !Py_IS_TYPE(v, set[i].type))) {
            PyErr_Format(PyExc_TypeError, "%s: missing, or not a %s",
                         set[i].name, set[i].type ? set[i].type->tp_name
                                                  : "value");
            return -1;
        }
    }
    for (size_t i = 0; i < n; i++) {
        PyObject *v = PyDict_GetItemString(kw, set[i].name);
        Py_INCREF(v);
        Py_XSETREF(*set[i].to, v);
    }
    return 0;
}

static PyObject *
configure(PyObject *self, PyObject *args, PyObject *kw)
{
    PyTypeObject *T = &PyType_Type, *L = &PyLong_Type, *F = &PyFrozenSet_Type,
                 *D = &PyDict_Type;
    struct setting set[] = {
        {"element", (PyObject **)&Element, T},
        {"text_node", (PyObject **)&TextNode, T},
        {"document", (PyObject **)&Document, T},
        {"builder", (PyObject **)&Builder, T},
        {"element_kind", &k_element, L}, {"text_kind", &k_text, L},
        {"whitespace_kind", &k_whitespace, L}, {"comment_kind", &k_comment, L},
        {"modes", &modes, &PyTuple_Type}, {"afe_marker", &afe_marker, NULL},
        {"void", &s_void, F}, {"closed_by", &closed_by, D},
        {"any_closer", &s_closer, F}, {"formatting", &s_formatting, F},
        {"markers", &s_markers, F}, {"scaffold", &s_scaffold, F},
        {"rule_tags", &s_rule_tags, F}, {"pre", &s_pre, F},
        {"no_nest", &s_no_nest, F}, {"head_elements", &s_head, F},
        {"raw_text", &s_raw, F}, {"rcdata", &s_rcdata, F},
        {"entities", &entities, D}, {"invalid_charrefs", &invalid_charrefs, D},
        {"invalid_codepoints", &invalid_codepoints, F}};
    if (PyTuple_GET_SIZE(args) != 0) {
        PyErr_SetString(PyExc_TypeError, "configure takes keywords only");
        return NULL;
    }
    configured = 0;
    if (store(kw, set, sizeof set / sizeof *set) < 0
            || !PyArg_ParseTuple(modes, "lllll:modes", &before_html,
                                 &before_head, &in_head, &after_head,
                                 &in_body))
        return NULL;
    struct {
        PyTypeObject *type;
        const char *name;
        Py_ssize_t *off;
    } slots[] = {
        {Element, "kind", &n_kind}, {Element, "parent", &n_parent},
        {Element, "index_within_parent", &n_index}, {Element, "tag", &e_tag},
        {Element, "attrs", &e_attrs}, {Element, "_children", &e_children},
        {Element, "start", &e_start}, {Element, "start_tag_end", &e_stag_end},
        {Element, "end_tag_start", &e_etag_start}, {Element, "end", &e_end},
        {Element, "implied", &e_implied}, {TextNode, "text", &t_text},
        {TextNode, "start", &t_start}, {TextNode, "end", &t_end},
        {Document, "_children", &d_children},
        {Document, "doctype", &d_doctype}, {Builder, "stack", &b_stack},
        {Builder, "afe", &b_afe}, {Builder, "mode", &b_mode},
        {Builder, "afe_dirty", &b_afe_dirty}, {Builder, "html", &b_html},
        {Builder, "head", &b_head}, {Builder, "body", &b_body}};
    for (size_t i = 0; i < sizeof slots / sizeof *slots; i++)
        if (slot_offset(slots[i].type, slots[i].name, slots[i].off) < 0)
            return NULL;
    if (TextNode->tp_base != Element->tp_base) {   /* one Node offset */
        PyErr_SetString(PyExc_TypeError, "nodes must share one Node base");
        return NULL;
    }
    configured = 1;
    Py_RETURN_NONE;
}

static PyObject *
configure_extract(PyObject *self, PyObject *args, PyObject *kw)
{
    struct setting set[] = {
        {"media", &s_media, &PyFrozenSet_Type},
        {"blocks", &s_blocks, &PyFrozenSet_Type},
        {"has_ad_token", &has_ad_token, NULL}};
    if (PyTuple_GET_SIZE(args) != 0) {
        PyErr_SetString(PyExc_TypeError, "configure takes keywords only");
        return NULL;
    }
    extract_configured = 0;
    if (store(kw, set, sizeof set / sizeof *set) < 0)
        return NULL;
    extract_configured = 1;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"build", build, METH_VARARGS,
     "build(html, pos, defer, tb) -> (token, pos): insert the tokens that "
     "need no Python rule into tb; return the first that needs one"},
    {"release", release, METH_O,
     "release(root): empty every child list under root"},
    {"extract", extract, METH_VARARGS,
     "extract(root, strip_tags, ad_tokens, normalize_ws, emit_links, "
     "kind_by_tag) -> spans: the walk of extract.extract_spans"},
    {"configure", (PyCFunction)(void (*)(void))configure,
     METH_VARARGS | METH_KEYWORDS,
     "configure(**kw): node classes, node kinds, modes, rule sets and "
     "character-reference tables"},
    {"configure_extract", (PyCFunction)(void (*)(void))configure_extract,
     METH_VARARGS | METH_KEYWORDS,
     "configure_extract(**kw): the span walk's tag sets and ad-token test"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_scan", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__scan(void)
{
    struct {
        PyObject **s;
        const char *value;
    } strs[] = {
        {&str_empty, ""}, {&str_space, " "}, {&str_text, "text"},
        {&str_code, "code"}, {&str_media, "media"}, {&str_link, "link"},
        {&str_a, "a"}, {&str_class, "class"}, {&str_id, "id"},
        {&str_src, "src"}, {&str_data_src, "data-src"}, {&str_href, "href"},
        {&str_html, "html"}, {&str_head, "head"}, {&str_body, "body"},
        {&str_p, "p"}, {&str_textarea, "textarea"}, {&str_error, "error"},
        {&str_lower, "lower"}, {&str_misnested, "misnested-end-tag"},
        {&str_unmatched, "unmatched-end-tag"},
        {&str_eof_rawtext, "eof-in-rawtext"}, {&str_comment_close, "-->"},
        {&str_comment_bang, "--!>"}};
    for (size_t i = 0; i < sizeof strs / sizeof *strs; i++)
        if (*strs[i].s == NULL
                && (*strs[i].s = PyUnicode_InternFromString(strs[i].value))
                   == NULL)
            return NULL;
    return PyModule_Create(&module);
}
