#!/usr/bin/env python3
"""Lists where each option field of the library is set.

    python3 scripts/option_audit.py [--root DIR] [--summary] [STRUCT ...]

For every field of the `*Options` and `*Config` structs under src/ (nested
ones are named `Outer::Config`), prints the setter sites outside tests/ and
inside tests/, searched in every *.h, *.cc and *.cpp under src, bench
(bench/e2e included), tools, examples and tests. A setter is

  * an assignment, plain or compound: `x.field = v`, `p->field += v`,
    `x.field[i] = v` (a designated initializer `.field = v` matches too);
  * a container fill: `x.field.push_back(`, `emplace_back(`, `assign(`,
    `insert(`, `emplace(`;
  * a non-empty brace initialization of the struct: `S{a, b}`, `S s{a, b}`,
    `S s = {a, b}`, whose positional elements set the fields in declaration
    order.

A receiver such as `opts.base.resilience.max_retries` is resolved through
the declared type of its first name (the nearest earlier declaration in the
file, or in the header of the same name) and the field types of every struct
under src/. A receiver that cannot be resolved counts for every audited
struct with a field of that name, and its site is marked `(by name)`.
Comments and string literals are ignored. Naming structs limits the report
to them; --summary prints only the counts. Exits 0.
"""
import argparse
import os
import re
import sys

SEARCH_DIRS = ("src", "bench", "tools", "examples", "tests")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
AUDITED = re.compile(r"(Options|Config)$")
NOT_FIELDS = ("static ", "using ", "typedef ", "friend ", "template", "enum ",
              "struct ", "class ", "explicit ", "virtual ", "~", "operator")


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, keeping every newline."""
    out = []
    i, n = 0, len(text)
    while i < n:
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif text[i] in "\"'":
            quote, j = text[i], i + 1
            while j < n and text[j] != quote and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
        else:
            out.append(text[i])
            i += 1
            continue
        out.append(re.sub(r"[^\n]", " ", text[i:j]))
        i = j
    return "".join(out)


def matching_close(text, open_index):
    depth = 0
    for k in range(open_index, len(text)):
        if text[k] in "{([":
            depth += 1
        elif text[k] in "})]":
            depth -= 1
            if depth == 0:
                return k
    return len(text) - 1


def split_top_level(text, separators):
    """Splits `text` on the separators that sit outside (), [] and {}."""
    parts, depth, start = [], 0, 0
    for k, c in enumerate(text):
        if c in "{([":
            depth += 1
        elif c in "})]":
            depth -= 1
        elif c in separators and depth == 0:
            parts.append(text[start:k])
            start = k + 1
    parts.append(text[start:])
    return parts


def body_fields(body):
    """(name, type) of each data member declared at the body's top level."""
    statements, depth, start, k = [], 0, 0, 0
    while k < len(body):
        c = body[k]
        if c == "{" and depth == 0:
            head = body[start:k]
            if "(" in head or re.search(r"\b(struct|class|enum|union)\b", head):
                k = matching_close(body, k) + 1  # a function or nested type
                if k < len(body) and body[k] == ";":
                    k += 1
                start = k
                continue
        if c in "{([":
            depth += 1
        elif c in "})]":
            depth -= 1
        elif c == ";" and depth == 0:
            statements.append(body[start:k])
            start = k + 1
        k += 1
    fields = []
    for statement in statements:
        statement = re.sub(r"\b(public|private|protected)\s*:", " ", statement)
        statement = " ".join(statement.split())
        if not statement or statement.startswith(NOT_FIELDS):
            continue
        declarator = re.split(r"[={]", statement)[0].strip()
        if "(" in declarator:
            continue
        match = re.search(r"([A-Za-z_]\w*)\s*(\[[^\]]*\])?$", declarator)
        if match and match.start() > 0:
            fields.append((match.group(1), declarator[:match.start()].strip()))
    return fields


def parse_structs(root):
    """Every struct or class defined under src/: qualified name -> record."""
    structs = {}
    definition = re.compile(r"(?<!enum )\b(?:struct|class)\s+([A-Za-z_]\w*)[^;{}()]*\{")
    for path in source_files(root, ("src",)):
        text = strip_comments_and_strings(read(path))
        spans = []
        for match in definition.finditer(text):
            open_index = match.end() - 1
            close = matching_close(text, open_index)
            outer = [name for (lo, hi, name) in spans if lo < match.start() < hi]
            qualified = "::".join(outer[-1:] + [match.group(1)])
            spans.append((open_index, close, qualified))
            line = text.count("\n", 0, match.start()) + 1
            structs.setdefault(qualified, {
                "file": os.path.relpath(path, root), "line": line,
                "fields": body_fields(text[open_index + 1:close])})
    return structs


def resolve_type(type_text, structs):
    """The struct a declared type names (its last resolvable name), or None."""
    for token in reversed(re.findall(r"[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*", type_text)):
        parts = token.split("::")
        for k in range(len(parts)):
            tail = "::".join(parts[k:])
            if tail in structs:
                return tail
    return None


TYPE_BEFORE_NAME = re.compile(
    r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*(?:<[^;{}()\n]*>)?\s*[&*]*\s*(?:const\s+)?[&*]*\s*$")


def declarations(text, head, structs):
    """(offset, struct) of every declaration of variable `head` in `text`."""
    found = []
    for match in re.finditer(r"\b" + re.escape(head) + r"\b(?=\s*(?:[;,={)\[]|$))", text):
        line_start = text.rfind("\n", 0, match.start()) + 1
        prefix = TYPE_BEFORE_NAME.search(text, line_start, match.start())
        struct = resolve_type(prefix.group(1), structs) if prefix else None
        if struct:
            found.append((match.start(), struct))
    return found


def declared_type(texts, head, position, cache, structs):
    """Type of variable `head` from its nearest declaration before `position`
    in the first text, else anywhere in the later texts (the header)."""
    for index, text in enumerate(texts):
        if (index, head) not in cache:
            cache[(index, head)] = declarations(text, head, structs)
        found = [struct for offset, struct in cache[(index, head)]
                 if index > 0 or offset < position]
        if found:
            return found[-1]
    return None


def field_type(structs, struct, name):
    for field, type_text in structs.get(struct, {}).get("fields", []):
        if field == name:
            return resolve_type(type_text, structs)
    return None


def source_files(root, dirs):
    for top in dirs:
        for directory, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_SUFFIXES):
                    yield os.path.join(directory, name)


def read(path):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


MEMBER = r"[A-Za-z_]\w*(?:\s*\[[^\]\n]*\])?"
SETTER = re.compile(
    r"(?P<recv>" + MEMBER + r"(?:\s*(?:\.|->)\s*" + MEMBER + r")*)?\s*(?:\.|->)\s*"
    r"(?P<field>[A-Za-z_]\w*)"
    r"\s*(?:\[[^\]\n]*\]\s*)?(?:(?:[-+*/%&|^]|<<|>>)?=(?!=)|\.\s*(?:push_back|emplace_back"
    r"|assign|insert|emplace)\s*\()")


def audit(root, structs, audited):
    """site lists per (struct, field): {"outside": [...], "tests": [...]}."""
    by_name = {}
    for struct in audited:
        for field, _ in structs[struct]["fields"]:
            by_name.setdefault(field, []).append(struct)
    sites = {(s, f): {"outside": [], "tests": []}
             for s in audited for f, _ in structs[s]["fields"]}
    for path in source_files(root, SEARCH_DIRS):
        relative = os.path.relpath(path, root)
        where = "tests" if relative.startswith("tests" + os.sep) else "outside"
        text = strip_comments_and_strings(read(path))
        stem = os.path.splitext(path)[0] + ".h"
        texts = [text] + ([strip_comments_and_strings(read(stem))]
                          if stem != path and os.path.isfile(stem) else [])

        cache = {}

        def record(struct, field, offset, note=""):
            line = text.count("\n", 0, offset) + 1
            sites[(struct, field)][where].append(f"{relative}:{line}{note}")

        for match in SETTER.finditer(text):
            field = match.group("field")
            if field not in by_name:
                continue
            chain = [re.sub(r"\s*\[.*", "", part).strip()
                     for part in re.split(r"\.|->", match.group("recv") or "") if part.strip()]
            struct = None
            if chain:
                struct = declared_type(texts, chain[0], match.start(), cache, structs)
                for member in chain[1:]:
                    struct = field_type(structs, struct, member) if struct else None
            if struct in audited and (struct, field) in sites:
                record(struct, field, match.start())
            elif struct is None or struct not in structs:
                for candidate in by_name[field]:
                    record(candidate, field, match.start(), " (by name)")

        for struct in audited:
            names = {struct, struct.split("::")[-1]}
            alternatives = "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))
            brace = re.compile(r"(?<![\w:])(?<!struct )(?<!class )(?:" + alternatives +
                               r")(?:\s+[A-Za-z_]\w*)?\s*=?\s*\{")
            fields = [f for f, _ in structs[struct]["fields"]]
            for match in brace.finditer(text):
                close = matching_close(text, match.end() - 1)
                elements = [e.strip() for e in
                            split_top_level(text[match.end():close], ",") if e.strip()]
                for index, element in enumerate(elements):
                    if not element.startswith(".") and index < len(fields):
                        record(struct, fields[index], match.start(), " (brace)")
    return sites


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("structs", nargs="*")
    args = parser.parse_args()

    structs = parse_structs(args.root)
    audited = sorted(s for s in structs if AUDITED.search(s.split("::")[-1]))
    if args.structs:
        audited = [s for s in audited if s in args.structs or s.split("::")[-1] in args.structs]
    sites = audit(args.root, structs, audited)

    totals = {"outside": 0, "tests only": 0, "never": 0}
    for struct in audited:
        record = structs[struct]
        if not args.summary:
            print(f"{struct} ({record['file']}:{record['line']})")
        for field, _ in record["fields"]:
            found = sites[(struct, field)]
            kind = ("outside" if found["outside"] else
                    "tests only" if found["tests"] else "never")
            totals[kind] += 1
            if args.summary:
                continue
            print(f"  {field}: {len(found['outside'])} outside tests, "
                  f"{len(found['tests'])} in tests [{kind}]")
            for where in ("outside", "tests"):
                for site in found[where]:
                    print(f"    {where:7} {site}")
    fields = sum(totals.values())
    print(f"{len(audited)} structs, {fields} fields: {totals['outside']} set outside "
          f"tests, {totals['tests only']} set only in tests, {totals['never']} never set")
    return 0


if __name__ == "__main__":
    sys.exit(main())
