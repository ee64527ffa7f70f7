//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for the stub `serde` in `../serde`, written against `proc_macro` alone
//! (no `syn`/`quote`, which are not available offline).
//!
//! Supported input is what this workspace derives on: non-generic structs
//! (named, tuple, unit) and enums (unit, tuple and struct variants), with
//! the field attributes `#[serde(skip)]`, `#[serde(default)]` and
//! `#[serde(default = "path")]`. Anything else is a compile error naming
//! the unsupported construct. The generated code is assembled as text and
//! parsed back into tokens.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize_impl)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("generated impl is valid Rust")
}

struct Item {
    name: String,
    body: Body,
}

enum Body {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Field {
    name: String,
    /// `#[serde(skip)]`: never written, rebuilt with `Default`.
    skip: bool,
    /// What an absent key becomes: `Some("")` = `Default::default()`,
    /// `Some(path)` = `path()`, `None` = the type decides.
    default: Option<String>,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Skips `#[...]` attributes, returning the contents of the `serde` ones.
fn take_attrs(tokens: &mut Tokens) -> Vec<TokenStream> {
    let mut serde = Vec::new();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        if let Some(TokenTree::Group(attr)) = tokens.next() {
            let mut inner = attr.stream().into_iter();
            if matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
                if let Some(TokenTree::Group(args)) = inner.next() {
                    serde.push(args.stream());
                }
            }
        }
    }
    serde
}

/// Skips `pub`, `pub(crate)`, `pub(in path)`.
fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Consumes tokens up to and including the next `,` that is outside any
/// `<...>`; returns false when nothing was left to consume.
fn skip_past_comma(tokens: &mut Tokens) -> bool {
    let mut angle = 0i32;
    let mut any = false;
    for tt in tokens.by_ref() {
        any = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => break,
                _ => {}
            }
        }
    }
    any
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    take_attrs(&mut tokens);
    skip_visibility(&mut tokens);
    let keyword = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("serde stub derive: expected `struct` or `enum`".into()),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("serde stub derive: expected a type name".into()),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde stub derive: generics on `{name}` are not supported"
        ));
    }
    let body = match (keyword.as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) => Body::Struct(parse_fields(&g)?),
        ("struct", _) => Body::Struct(Fields::Unit),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(parse_variants(g.stream())?),
        _ => {
            return Err(format!(
                "serde stub derive: cannot derive on `{keyword} {name}`"
            ))
        }
    };
    Ok(Item { name, body })
}

fn parse_fields(group: &proc_macro::Group) -> Result<Fields, String> {
    let mut tokens = group.stream().into_iter().peekable();
    match group.delimiter() {
        Delimiter::Parenthesis => {
            let mut count = 0;
            while skip_past_comma(&mut tokens) {
                count += 1;
            }
            Ok(Fields::Tuple(count))
        }
        Delimiter::Brace => {
            let mut fields = Vec::new();
            loop {
                let attrs = take_attrs(&mut tokens);
                skip_visibility(&mut tokens);
                let name = match tokens.next() {
                    Some(TokenTree::Ident(i)) => i.to_string(),
                    None => break,
                    Some(other) => return Err(format!("serde stub derive: unexpected `{other}`")),
                };
                let mut field = Field {
                    name,
                    skip: false,
                    default: None,
                };
                for attr in attrs {
                    apply_field_attr(&mut field, attr)?;
                }
                fields.push(field);
                skip_past_comma(&mut tokens); // `: Type,`
            }
            Ok(Fields::Named(fields))
        }
        _ => Err("serde stub derive: unexpected field delimiter".into()),
    }
}

fn apply_field_attr(field: &mut Field, attr: TokenStream) -> Result<(), String> {
    let text: Vec<String> = attr.into_iter().map(|tt| tt.to_string()).collect();
    match text
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["skip"] => field.skip = true,
        ["default"] => field.default = Some(String::new()),
        ["default", "=", path] => field.default = Some(path.trim_matches('"').to_string()),
        other => {
            return Err(format!(
                "serde stub derive: unsupported attribute #[serde({})] on `{}`",
                other.join(" "),
                field.name
            ))
        }
    }
    Ok(())
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, Fields)>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        take_attrs(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            Some(other) => return Err(format!("serde stub derive: unexpected `{other}`")),
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) => {
                let fields = parse_fields(g)?;
                tokens.next();
                fields
            }
            _ => Fields::Unit,
        };
        variants.push((name, fields));
        skip_past_comma(&mut tokens); // `,` or `= discriminant,`
    }
    Ok(variants)
}

// ---------------------------------------------------------------------
// Serialize

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => {
            let (pattern, writes) = write_fields(fields);
            format!("let {name}{pattern} = self; {writes}")
        }
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(variant, fields)| {
                    let (pattern, writes) = write_fields(fields);
                    match fields {
                        Fields::Unit => {
                            format!("{name}::{variant} => out.push_str(\"\\\"{variant}\\\"\"),")
                        }
                        _ => format!(
                            "{name}::{variant}{pattern} => {{ \
                             out.push_str(\"{{\\\"{variant}\\\":\"); {writes} out.push('}}'); }}"
                        ),
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn write_json(&self, out: &mut ::std::string::String) {{ {body} }} }}"
    )
}

/// A destructuring pattern binding every written field, and the
/// statements writing them as one JSON value.
fn write_fields(fields: &Fields) -> (String, String) {
    match fields {
        Fields::Unit => (String::new(), "out.push_str(\"null\");".to_string()),
        Fields::Tuple(1) => (
            "(f0)".to_string(),
            "::serde::Serialize::write_json(f0, out);".to_string(),
        ),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
            let mut writes = "out.push('[');".to_string();
            for (i, bind) in binds.iter().enumerate() {
                if i > 0 {
                    writes.push_str("out.push(',');");
                }
                writes.push_str(&format!("::serde::Serialize::write_json({bind}, out);"));
            }
            writes.push_str("out.push(']');");
            (format!("({})", binds.join(", ")), writes)
        }
        Fields::Named(named) => {
            let mut writes = "out.push('{');".to_string();
            let mut binds = Vec::new();
            for field in named.iter().filter(|f| !f.skip) {
                let fname = &field.name;
                let comma = if binds.is_empty() { "" } else { "," };
                writes.push_str(&format!(
                    "out.push_str(\"{comma}\\\"{fname}\\\":\"); \
                     ::serde::Serialize::write_json({fname}, out);"
                ));
                binds.push(fname.clone());
            }
            writes.push_str("out.push('}');");
            binds.push("..".to_string());
            (format!("{{ {} }}", binds.join(", ")), writes)
        }
    }
}

// ---------------------------------------------------------------------
// Deserialize

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => format!("Ok({})", read_fields(name, name, fields, "value")),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(variant, fields)| {
                    let path = format!("{name}::{variant}");
                    match fields {
                        Fields::Unit => format!("\"{variant}\" => Ok({path}),"),
                        _ => format!(
                            "\"{variant}\" => {{ \
                             let content = ::serde::payload(content, \"{path}\")?; \
                             Ok({}) }}",
                            read_fields(&path, &path, fields, "content")
                        ),
                    }
                })
                .collect();
            format!(
                "let (tag, content) = ::serde::variant(value, \"{name}\")?; \
                 let _ = &content; \
                 match tag {{ {arms} other => Err(::serde::unknown_variant(other, \"{name}\")) }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
         fn from_value(value: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}

/// An expression building `ctor` from the JSON value bound to `source`.
fn read_fields(ctor: &str, target: &str, fields: &Fields, source: &str) -> String {
    match fields {
        Fields::Unit => ctor.to_string(),
        Fields::Tuple(1) => format!("{ctor}(::serde::Deserialize::from_value({source})?)"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "{{ let items = ::serde::tuple({source}, {n}, \"{target}\")?; {ctor}({}) }}",
                items.join(", ")
            )
        }
        Fields::Named(named) => {
            let inits: Vec<String> = named
                .iter()
                .map(|field| {
                    let fname = &field.name;
                    let default = match field.default.as_deref() {
                        Some("") => "::std::default::Default::default".to_string(),
                        Some(path) => path.to_string(),
                        None => String::new(),
                    };
                    if field.skip {
                        format!("{fname}: ::std::default::Default::default()")
                    } else if default.is_empty() {
                        format!("{fname}: ::serde::field(entries, \"{fname}\", \"{target}\")?")
                    } else {
                        format!("{fname}: ::serde::field_or(entries, \"{fname}\", {default})?")
                    }
                })
                .collect();
            format!(
                "{{ let entries = ::serde::object({source}, \"{target}\")?; {ctor} {{ {} }} }}",
                inits.join(", ")
            )
        }
    }
}
